"""CLI surface: verbs, report envelopes, exit codes, determinism."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import vicbench
from vicbench.cli import main
from vicbench.jsonio import dump_payload, load_ring, save_ring
from vicbench.rings import builtin_ring, zmod


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    payload = json.loads(captured.out) if captured.out.strip() else None
    return code, payload, captured.err


def write_morphism(path, ring_name, d, n, f_prime, f_dprime):
    payload = {"ring": ring_name, "d": d, "n": n,
               "f_prime": f_prime, "f_dprime": f_dprime}
    path.write_text(json.dumps(payload))
    return path


@pytest.fixture()
def z4_file(tmp_path):
    path = tmp_path / "z4.json"
    save_ring(path, zmod(4))
    return path


@pytest.fixture()
def f2_file(tmp_path):
    path = tmp_path / "f2.json"
    save_ring(path, builtin_ring("F2"))
    return path


def test_ring_build_roundtrip(tmp_path, capsys):
    out = tmp_path / "t2f2.json"
    code, payload, _ = run_cli(capsys, "--out", str(tmp_path / "report.json"),
                               "ring", "build",
                               "--spec", "upper_triangular(zmod(2),2)")
    assert code == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["result"]["size"] == 8
    # emit then re-ingest: tables identical
    code, payload, _ = run_cli(capsys, "ring", "build",
                               "--spec", "upper_triangular(zmod(2),2)",
                               "--out", str(out))
    assert code == 0
    assert payload["result"]["written"] == str(out)
    again = load_ring(out)
    assert again.same_tables(builtin_ring("T2F2"))


def test_ring_describe_example(z4_file, capsys):
    code, payload, _ = run_cli(capsys, "ring", "describe", "--in", str(z4_file))
    assert code == 0
    res = payload["result"]
    assert res["radical"] == [0, 2]
    assert res["q"] == 1 and res["mu"] == [1] and res["field_orders"] == [2]


def test_ring_wedderburn_report(capsys):
    code, payload, _ = run_cli(capsys, "ring", "wedderburn", "--builtin", "T2F2")
    assert code == 0
    res = payload["result"]
    assert res["q"] == 2 and res["mu"] == [1, 1]
    assert all(res["invariants"].values())
    assert res["radical_nilpotency_index"] == 2


def test_morphism_check_example(f2_file, tmp_path, capsys):
    m = write_morphism(tmp_path / "m.json", "F2", 1, 2, [[1], [0]], [[1, 0]])
    code, payload, _ = run_cli(capsys, "morphism", "check",
                               "--ring", str(f2_file), "--in", str(m))
    assert code == 0
    res = payload["result"]
    assert res["column_adapted"] is True
    assert res["S"] == [[1]]
    assert res["free_rows"] == [2] and res["dependent_rows"] == [1]


def test_morphism_check_not_adapted(tmp_path, capsys):
    save_ring(tmp_path / "f3.json", builtin_ring("F3"))
    m = write_morphism(tmp_path / "m.json", "F3", 1, 2, [[2], [0]], [[2, 0]])
    code, payload, _ = run_cli(capsys, "morphism", "check",
                               "--ring", str(tmp_path / "f3.json"), "--in", str(m))
    assert code == 0
    assert payload["result"]["column_adapted"] is False


def test_morphism_factor(tmp_path, capsys):
    save_ring(tmp_path / "z4.json", zmod(4))
    m = write_morphism(tmp_path / "m.json", "Z4", 1, 2, [[3], [2]], [[3, 2]])
    code, payload, _ = run_cli(capsys, "morphism", "factor",
                               "--ring", str(tmp_path / "z4.json"), "--in", str(m))
    assert code == 0
    res = payload["result"]
    assert res["f2"]["f_dprime"] == [[1, 2]]
    assert res["checks"]["f2_column_adapted"] is True


def test_order_compare_rank_rule(f2_file, tmp_path, capsys):
    a = write_morphism(tmp_path / "a.json", "F2", 1, 1, [[1]], [[1]])
    b = write_morphism(tmp_path / "b.json", "F2", 1, 2, [[1], [0]], [[1, 0]])
    code, payload, _ = run_cli(capsys, "order", "compare", "--ring", str(f2_file),
                               "--a", str(a), "--b", str(b))
    assert code == 0
    assert payload["result"]["result"] == "LT"


def test_order_iota_club_sentinel(f2_file, tmp_path, capsys):
    m = write_morphism(tmp_path / "m.json", "F2", 1, 2, [[1], [1]], [[1, 0]])
    code, payload, _ = run_cli(capsys, "order", "iota", "--ring", str(f2_file),
                               "--in", str(m))
    assert code == 0
    letters = payload["result"]["letters"]
    assert letters[0]["m1"] == [["club"]]
    assert letters[1]["m1"] == [[1]]
    assert letters[0]["m2"] == [1]


def test_order_chain(f2_file, tmp_path, capsys):
    a = write_morphism(tmp_path / "a.json", "F2", 1, 2, [[1], [0]], [[1, 0]])
    b = write_morphism(tmp_path / "b.json", "F2", 1, 3,
                       [[1], [0], [0]], [[1, 0, 0]])
    code, payload, _ = run_cli(capsys, "order", "chain", "--ring", str(f2_file),
                               "--a", str(a), "--b", str(b))
    assert code == 0
    assert payload["result"]["related"] is True
    assert payload["result"]["chain"] == [[2, 2]]


def test_enumerate_counts(capsys):
    code, payload, _ = run_cli(capsys, "enumerate", "ovic", "--builtin", "F2",
                               "--d", "1", "--n", "2", "--count-only")
    assert code == 0
    assert payload["result"]["count"] == 6
    code, payload, _ = run_cli(capsys, "enumerate", "ovic", "--builtin", "F2",
                               "--d", "1", "--n", "2", "--vic", "--count-only")
    assert payload["result"]["count"] == 6


def test_noether_span_cli(f2_file, tmp_path, capsys):
    gens = [{
        "degree": 1,
        "terms": [{"coeff": 1,
                   "morphism": {"d": 1, "n": 1, "f_prime": [[1]], "f_dprime": [[1]]}}],
    }]
    gpath = tmp_path / "gens.json"
    gpath.write_text(json.dumps(gens))
    code, payload, _ = run_cli(capsys, "noether", "span", "--ring", str(f2_file),
                               "--d", "1", "--k", "F2", "--gens", str(gpath),
                               "--horizon", "3")
    assert code == 0
    dims = {entry["n"]: entry["dim"] for entry in payload["result"]["degrees"]}
    assert dims == {0: 0, 1: 1, 2: 6, 3: 28}


@pytest.mark.parametrize("argv", [
    ("enumerate", "ovic", "--d", "-1", "--n", "2"),
    ("enumerate", "ovic", "--d", "-1", "--n", "2", "--vic"),
    ("enumerate", "ovic", "--d", "1", "--n", "-2", "--vic"),
    ("enumerate", "ovic", "--d", "1", "--n", "-2"),
    ("noether", "endo", "--d", "-1", "--horizon", "2"),
    ("noether", "endo", "--d", "1", "--horizon", "-3"),
    ("noether", "span", "--d", "-1", "--horizon", "2", "--gens", "GENS"),
    ("noether", "span", "--d", "1", "--horizon", "-2", "--gens", "GENS"),
    ("enumerate", "ovic", "--d", "1", "--n", "2", "--budget", "-5"),
    ("enumerate", "ovic", "--d", "1", "--n", "2", "--vic", "--budget", "-5"),
    ("noether", "endo", "--d", "1", "--horizon", "2", "--budget", "-1"),
    ("noether", "span", "--d", "1", "--horizon", "2", "--gens", "GENS", "--budget", "-1"),
    ("order", "chain", "--a", "GENS", "--b", "GENS", "--node-cap", "-1"),
])
def test_negative_rank_is_usage_error(tmp_path, capsys, argv):
    gpath = tmp_path / "gens.json"
    gpath.write_text("[]")
    argv = [str(gpath) if a == "GENS" else a for a in argv]
    code, payload, err = run_cli(capsys, *argv, "--builtin", "F2")
    assert code == 2
    assert payload is None
    assert "usage error" in err and "non-negative" in err


def test_ring_file_without_mul_is_structured_error(tmp_path, capsys):
    payload = builtin_ring("F2").to_payload()
    del payload["mul"]
    path = tmp_path / "f2.json"
    path.write_text(json.dumps(payload))
    code, payload, _ = run_cli(capsys, "ring", "describe", "--in", str(path))
    assert code == 1
    assert payload["error"]["kind"] == "BadShape"
    assert "mul" in payload["error"]["message"]


@pytest.mark.parametrize("spec", ["matrix_ring(", "zmod(", "product(F2", "group_ring(F2,",
                                  "upper_triangular(F2,2"])
def test_truncated_ring_spec_is_structured_error(capsys, spec):
    code, payload, _ = run_cli(capsys, "ring", "build", "--spec", spec)
    assert code == 1
    assert payload["error"]["kind"] == "BadShape"
    assert spec in payload["error"]["message"]


@pytest.mark.parametrize("spec", ["zmod(0)", "zmod(1)", "matrix_ring(zmod(1),2)"])
def test_modulus_below_two_is_structured_error(capsys, spec):
    code, payload, _ = run_cli(capsys, "ring", "build", "--spec", spec)
    assert code == 1
    assert payload["error"]["kind"] == "BadShape"
    assert "modulus must be at least 2" in payload["error"]["message"]


@pytest.mark.parametrize("gens,needle", [
    ([{"terms": []}], "degree"),
    ([{"degree": 1}], "terms"),
    ([{"degree": "1", "terms": []}], "degree"),
    ([{"degree": 1, "terms": [{"coeff": 1}]}], "morphism"),
    ([{"degree": 1, "terms": [{"coeff": "x", "morphism": {
        "d": 1, "n": 1, "f_prime": [[1]], "f_dprime": [[1]]}}]}], "coeff"),
    ([{"degree": 1, "terms": [{"coeff": 1.5, "morphism": {
        "d": 1, "n": 1, "f_prime": [[1]], "f_dprime": [[1]]}}]}], "coeff"),
    ({"a": 1}, "list"),
])
def test_malformed_generator_file_is_structured_error(tmp_path, capsys, gens, needle):
    gpath = tmp_path / "gens.json"
    gpath.write_text(json.dumps(gens))
    code, payload, _ = run_cli(capsys, "noether", "span", "--builtin", "F2",
                               "--d", "1", "--k", "F2", "--gens", str(gpath),
                               "--horizon", "2")
    assert code == 1
    assert payload["error"]["kind"] == "BadShape"
    assert needle in payload["error"]["message"]


def test_noether_span_non_prime_field_is_usage_error(f2_file, tmp_path, capsys):
    gpath = tmp_path / "gens.json"
    gpath.write_text("[]")
    code, payload, err = run_cli(capsys, "noether", "span", "--ring", str(f2_file),
                                 "--d", "1", "--k", "F4", "--gens", str(gpath),
                                 "--horizon", "2")
    assert code == 2
    assert payload is None
    assert "usage error" in err and "F4" in err


def test_noether_endo_cli(capsys):
    code, payload, _ = run_cli(capsys, "noether", "endo", "--builtin", "Z4",
                               "--d", "1", "--horizon", "2")
    assert code == 0
    assert payload["result"]["counterexamples"] == 0
    assert payload["result"]["per_degree"] == {"1": 2, "2": 48}


def test_selftest_quick_exit_zero(capsys):
    code, payload, err = run_cli(capsys, "selftest", "quick")
    assert code == 0
    assert payload["result"]["passed"] is True
    assert "PASS" in err


def test_selftest_fault_injection(capsys):
    code, payload, _ = run_cli(capsys, "selftest", "quick",
                               "--inject-fault", "corrupt-mul")
    assert code == 1
    first = payload["result"]["checks"][0]
    assert first["name"] == "fault-injection"
    assert "InvalidTables" in first["detail"]


def test_domain_error_exit_one(f2_file, tmp_path, capsys):
    # morphism file over the wrong ring
    m = write_morphism(tmp_path / "m.json", "Z4", 1, 2, [[1], [0]], [[1, 0]])
    code, payload, _ = run_cli(capsys, "morphism", "check",
                               "--ring", str(f2_file), "--in", str(m))
    assert code == 1
    assert payload["error"]["kind"] == "InvalidMorphism"


_GOOD_F2 = {"ring": "F2", "d": 1, "n": 2, "f_prime": [[1], [0]], "f_dprime": [[1, 0]]}

# (case, file text, error kind, text the message must name)
MALFORMED_MORPHISMS = [
    ("missing-f_prime",
     json.dumps({k: v for k, v in _GOOD_F2.items() if k != "f_prime"}),
     "InvalidMorphism", "f_prime"),
    ("entry-7-in-F2", json.dumps(dict(_GOOD_F2, f_dprime=[[7, 0]])),
     "InvalidMorphism", "7"),
    ("truncated-json", json.dumps(_GOOD_F2)[:30], "BadShape", "not valid JSON"),
    ("ragged-f_dprime", json.dumps(dict(_GOOD_F2, f_dprime=[[1, 0], [1]])),
     "InvalidMorphism", "f_dprime"),
    ("d-not-integer", json.dumps(dict(_GOOD_F2, d="1")), "InvalidMorphism", "d must"),
    ("not-an-object", json.dumps([_GOOD_F2]), "InvalidMorphism", "JSON object"),
]


@pytest.mark.parametrize("verb", [("morphism", "check"), ("morphism", "factor"),
                                  ("order", "iota")])
@pytest.mark.parametrize("case,text,kind,needle", MALFORMED_MORPHISMS,
                         ids=[c[0] for c in MALFORMED_MORPHISMS])
def test_malformed_morphism_is_structured_error(f2_file, tmp_path, capsys, verb,
                                                case, text, kind, needle):
    m = tmp_path / f"{case}.json"
    m.write_text(text)
    code, payload, _ = run_cli(capsys, *verb, "--ring", str(f2_file), "--in", str(m))
    assert code == 1
    assert payload["error"]["kind"] == kind
    assert needle in payload["error"]["message"]


def test_usage_error_exit_two(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["ring", "describe", "--unknown-flag"])
    assert exc.value.code == 2
    capsys.readouterr()
    code = main(["ring", "describe"])  # no ring given
    capsys.readouterr()
    assert code == 2
    code = main(["morphism", "check", "--builtin", "F2",
                 "--in", str(tmp_path / "absent.json")])
    assert code == 2
    assert "cannot read" in capsys.readouterr().err


def test_report_determinism(z4_file, capsys):
    def payload_without_timing(args):
        code = main(args)
        out = capsys.readouterr().out
        data = json.loads(out)
        data.pop("timing", None)
        return dump_payload(data)

    args = ["ring", "describe", "--in", str(z4_file)]
    assert payload_without_timing(args) == payload_without_timing(args)
    args = ["ring", "wedderburn", "--builtin", "T2F2", "--seed", "0"]
    assert payload_without_timing(args) == payload_without_timing(args)


def test_cli_import_loads_no_numpy():
    """The runtime is pure Python; numpy is a test-only dependency."""
    src = str(Path(vicbench.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, vicbench.cli; sys.exit('numpy' in sys.modules)"],
        env=env, timeout=60)
    assert proc.returncode == 0
