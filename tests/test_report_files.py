import pytest

from sdelab.cli import RunReport, write_report


def _report(tables):
    return RunReport(config={}, version="test", timestamp_utc="",
                     wall_clock_s=0.0, payload={"x": 1}, tables=tables,
                     checks=[])


def test_failed_write_leaves_no_report(tmp_path):
    write_report(_report({"ok": [{"a": 1}]}), tmp_path)
    assert (tmp_path / "report.json").exists()
    # a row whose keys differ from the header makes the table write raise
    broken = _report({"ok": [{"a": 1}, {"a": 2, "b": 3}]})
    with pytest.raises(ValueError):
        write_report(broken, tmp_path)
    assert not (tmp_path / "report.json").exists()
    assert not list(tmp_path.glob("*.tmp"))
    assert (tmp_path / "table_ok.csv").read_text() == "a\n1\n"
