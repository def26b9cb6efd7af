from identity_diff import diff, main, read_cases

OLD = """\
{"kind":"linear_sum"} uniform 1 0 aaaa
{"kind":"linear_sum"} uniform 1 1e+06 bbbb
{"kind":"linear_sum"} uniform 2 0 cccc
3 0123abcd
"""
NEW = """\
{"kind":"linear_sum"} uniform 1 0 aaaa
{"kind":"linear_sum"} uniform 1 1e+06 dddd
{"kind":"linear_sum"} bursty 1 0 eeee
3 4567ef01
"""


def test_cases_are_keyed_by_every_field_but_the_hash(tmp_path):
    old = tmp_path / "old.txt"
    old.write_text(OLD, encoding="utf-8")
    cases = read_cases(str(old))
    assert cases == {
        '{"kind":"linear_sum"} uniform 1 0': "aaaa",
        '{"kind":"linear_sum"} uniform 1 1e+06': "bbbb",
        '{"kind":"linear_sum"} uniform 2 0': "cccc",
    }
    assert diff(cases, cases) == ([], [], [])


def test_counts_changed_added_and_removed_cases(tmp_path, capsys):
    old, new = tmp_path / "old.txt", tmp_path / "new.txt"
    old.write_text(OLD, encoding="utf-8")
    new.write_text(NEW, encoding="utf-8")
    assert main([str(old), str(new)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines == [
        'changed {"kind":"linear_sum"} uniform 1 1e+06',
        'added {"kind":"linear_sum"} bursty 1 0',
        'removed {"kind":"linear_sum"} uniform 2 0',
        "1 changed, 1 added, 1 removed, 1 same",
    ]


def test_unreadable_or_repeated_input_exits_2(tmp_path, capsys):
    twice = tmp_path / "twice.txt"
    twice.write_text(OLD.splitlines(keepends=True)[0] * 2, encoding="utf-8")
    assert main([str(twice), str(twice)]) == 2
    assert main([str(tmp_path / "missing.txt"), str(twice)]) == 2
    assert main([str(twice)]) == 2
    assert capsys.readouterr().out == ""
