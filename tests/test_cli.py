import json

import pytest

from weylpath import (
    Parabolic, build, catalog_certificate, certificate_to_dict, dump_certificate,
    greedy_certificate, verify_suite,
)
from weylpath import cli
from weylpath.certificates import MAX_CERTIFICATE_RANK
from weylpath.cli import main
from weylpath.rootsystem import RootSystem
from weylpath.vanishing import Certificate


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_list_minuscule_markdown(capsys):
    code, out, _ = run(capsys, "list-minuscule", "--family", "D", "--rank", "7")
    assert code == 0
    assert "1, 6, 7" in out


def test_list_minuscule_json_empty(capsys):
    code, out, _ = run(capsys, "list-minuscule", "--family", "G", "--rank", "2",
                       "--format", "json")
    assert code == 0
    assert json.loads(out)["minuscule"] == []


def test_verify_json(capsys):
    code, out, _ = run(capsys, "verify", "--family", "E", "--rank", "6",
                       "--parabolic", "1", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["sum_m"] == data["dim_gp"] == 16
    assert [r["m_dijkstra"] for r in data["rows"]] == [2, 2, 3, 4, 3, 2]


def test_verify_formats_agree(capsys):
    code, js, _ = run(capsys, "verify", "--family", "D", "--rank", "5",
                      "--parabolic", "5", "--format", "json")
    assert code == 0
    code, md, _ = run(capsys, "verify", "--family", "D", "--rank", "5",
                      "--parabolic", "5", "--format", "markdown")
    assert code == 0
    data = json.loads(js)
    for row in data["rows"]:
        assert f"| {row['d']} | {row['m_dijkstra']} |" in md


def test_verify_expect_minuscule_failure(capsys):
    code, _, err = run(capsys, "verify", "--family", "C", "--rank", "3",
                       "--parabolic", "1", "--expect-minuscule")
    assert code == 1
    assert "expectation failed" in err


def test_verify_expect_minuscule_success(capsys):
    code, _, _ = run(capsys, "verify", "--family", "D", "--rank", "5",
                     "--parabolic", "5", "--expect-minuscule")
    assert code == 0


def test_verify_witnesses(capsys):
    code, out, _ = run(capsys, "verify", "--family", "A", "--rank", "3",
                       "--parabolic", "2", "--witnesses", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["witnesses"] is not None


def test_verify_all(capsys):
    code, out, _ = run(capsys, "verify-all", "--max-rank", "5", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["ok"] is True


def test_verify_all_markdown(capsys):
    code, out, _ = run(capsys, "verify-all", "--max-rank", "4")
    assert code == 0
    assert "overall: ok" in out


def test_tau_action_table(capsys):
    code, out, _ = run(capsys, "tau", "--family", "E", "--rank", "7", "--parabolic", "7")
    assert code == 0
    assert "tau(alpha_7) = (2, 2, 3, 4, 3, 2, 1)" in out


CHECK_CERT_KEYS = [
    "family", "rank", "parabolic_omitted_index", "d", "cost", "dijkstra", "c_alpha",
    "roots_ok", "outside_levi", "sum_matches", "orthogonal", "ladder_uniform",
    "ladder_sequential", "cost_matches", "valid", "strict", "failures",
]


def test_check_cert_good(tmp_path, capsys):
    cert = catalog_certificate(build("E7"), Parabolic.maximal(7, 7), 7)
    path = tmp_path / "good.json"
    dump_certificate(cert, path)
    code, out, _ = run(capsys, "check-cert", str(path), "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert list(data) == CHECK_CERT_KEYS
    assert data["valid"] is True
    assert (data["cost"], data["dijkstra"], data["c_alpha"], data["failures"]) == (3, 3, 3, [])
    code, out, err = run(capsys, "check-cert", str(path))
    assert code == 0 and err == ""
    assert out.splitlines() == [
        "certificate for E7/P7, d=7, cost 3",
        "  roots_ok: pass",
        "  outside_levi: pass",
        "  sum_matches: pass",
        "  orthogonal: pass",
        "  ladder_uniform: pass",
        "  ladder_sequential: pass",
        "  cost_matches: pass",
        "  valid: yes   strict (orthogonal form): yes",
    ]


def test_check_cert_bad(tmp_path, capsys):
    rs = build("D5")
    bad = Certificate(rst=rs.rst, omitted=1, d=2,
                      entries=((rs.simple_root(3), 1), (rs.simple_root(1), 1)))
    path = tmp_path / "bad.json"
    dump_certificate(bad, path)
    code, out, err = run(capsys, "check-cert", str(path))
    assert code == 1
    assert out.splitlines() == [
        "certificate for D5/P1, d=2, cost 2",
        "  roots_ok: pass",
        "  outside_levi: FAIL",
        "  sum_matches: FAIL",
        "  orthogonal: pass",
        "  ladder_uniform: FAIL",
        "  ladder_sequential: FAIL",
        "  cost_matches: pass",
        "  valid: NO   strict (orthogonal form): no",
    ]
    assert len(err.splitlines()) == 6 and err.startswith("  ! ")
    code, out, _ = run(capsys, "check-cert", str(path), "--format", "json")
    assert code == 1
    data = json.loads(out)
    assert list(data) == CHECK_CERT_KEYS
    assert [data[key] for key in CHECK_CERT_KEYS[7:16]] == [
        True, False, False, True, False, False, True, False, False]
    assert data["failures"] == [line.removeprefix("  ! ") for line in err.splitlines()]


@pytest.mark.parametrize("label,p,d", [("E7", 7, 7), ("D5", 1, 2), ("B5", 5, 5)])
def test_check_cert_json_and_certificate_files_are_json_dumps(tmp_path, capsys, label, p, d):
    # Both are written by certificates._dumps; they keep json.dumps's indent-2
    # bytes.  The payload holds only str, int, bool, None and lists, so it
    # reads back to the value that was written.
    rs = build(label)
    cert = greedy_certificate(rs, Parabolic.maximal(rs.rank, p), d)
    for cert in (cert, cert._replace(entries=cert.entries[1:])):
        path = tmp_path / "cert.json"
        dump_certificate(cert, path)
        assert path.read_text() == json.dumps(certificate_to_dict(cert), indent=2) + "\n"
        _, out, _ = run(capsys, "check-cert", str(path), "--format", "json")
        assert out == json.dumps(json.loads(out), indent=2) + "\n"


def test_bad_configuration_is_usage_error(capsys):
    code, _, err = run(capsys, "verify", "--family", "E", "--rank", "9",
                       "--parabolic", "1")
    assert code == 2
    assert "error:" in err


def test_missing_file_is_error(capsys):
    code, _, err = run(capsys, "check-cert", "/nonexistent/cert.json")
    assert code == 2
    assert "error:" in err


def test_document_not_an_object_is_usage_error(tmp_path, capsys):
    path = tmp_path / "list.json"
    path.write_text("[1, 2]")
    code, out, err = run(capsys, "check-cert", str(path))
    assert (code, out) == (2, "")
    assert err == "error: malformed certificate data: certificate must be an object, got list\n"


def test_deeply_nested_json_is_usage_error(tmp_path, capsys):
    path = tmp_path / "nested.json"
    path.write_text("[" * 100_000)
    code, _, err = run(capsys, "check-cert", str(path))
    assert code == 2
    assert len(err.splitlines()) == 1 and err.startswith("error: malformed certificate data")


# -- the rank cap --------------------------------------------------------------

@pytest.fixture
def nothing_built(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError(f"built or swept {args}")

    monkeypatch.setattr(RootSystem, "__init__", refuse)
    monkeypatch.setattr(cli, "verify_suite", refuse)


OVER_CAP = [
    ("--rank", ["verify", "--family", "A", "--rank", "{r}", "--parabolic", "1"]),
    ("--rank", ["verify", "--family", "A", "--rank", "{r}", "--parabolic", "1", "--witnesses"]),
    ("--rank", ["tau", "--family", "D", "--rank", "{r}", "--parabolic", "2"]),
    ("--rank", ["list-minuscule", "--family", "B", "--rank", "{r}"]),
    ("--max-rank", ["verify-all", "--max-rank", "{r}", "--format", "json"]),
]


@pytest.mark.parametrize("flag, argv", OVER_CAP)
@pytest.mark.parametrize("rank", [MAX_CERTIFICATE_RANK + 1, 3000])
def test_ranks_above_the_cap_are_refused_before_any_build(capsys, nothing_built, flag, argv, rank):
    code, out, err = run(capsys, *(a.format(r=rank) for a in argv))
    assert (code, out) == (2, "")
    assert err == f"error: {flag} {rank} exceeds the cap of {MAX_CERTIFICATE_RANK}\n"


def test_ranks_at_the_cap_still_run(capsys, monkeypatch):
    code, out, _ = run(capsys, "list-minuscule", "--family", "A",
                       "--rank", str(MAX_CERTIFICATE_RANK), "--format", "json")
    assert code == 0
    assert json.loads(out)["minuscule"] == list(range(1, MAX_CERTIFICATE_RANK + 1))
    swept = []
    monkeypatch.setattr(cli, "verify_suite", lambda k: swept.append(k) or verify_suite(2))
    code, _, _ = run(capsys, "verify-all", "--max-rank", str(MAX_CERTIFICATE_RANK))
    assert (code, swept) == (0, [MAX_CERTIFICATE_RANK])
