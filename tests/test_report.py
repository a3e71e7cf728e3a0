from fractions import Fraction

import pytest

from rht.report import Report, SCHEMA


def test_report_machine_mode_is_one_line_per_field():
    r = Report("cohomology")
    r.add("input", "s2.cdga")
    r.add("degree.2.rank", 1)
    r.add("value", Fraction(-3, 2))
    r.add("flag", True)
    assert r.render_machine() == (
        f"schema = {SCHEMA}\ncommand = cohomology\ninput = s2.cdga\n"
        "degree.2.rank = 1\nvalue = -3/2\nflag = true\n")


def test_report_rejects_multiline_values():
    r = Report("x")
    with pytest.raises(ValueError):
        r.add("k", "a\nb")


def test_report_human_mode_mentions_fields():
    r = Report("scalable")
    r.add("verdict", "Scalable")
    text = r.render_human()
    assert "verdict" in text and "Scalable" in text
    assert SCHEMA not in text
