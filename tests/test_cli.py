import copy
import dataclasses
import hashlib
import json
import os
import pathlib
import subprocess
import sys

import pytest

from sphskel import catalog, cli, exactlp, mukai
from sphskel.cli import UsageError, parse_params, parse_selector


def run_cli(*args, env=None):
    return subprocess.run(
        [sys.executable, "-m", "sphskel.cli", *args],
        capture_output=True,
        text=True,
        env=env,
    )


def test_parse_selector():
    assert parse_selector("all") == (None, None)
    assert parse_selector("34") == (34, None)
    assert parse_selector("43/p,q!=0,r=0") == (43, "p,q!=0,r=0")
    # the unicode inequality signs used in print are accepted too
    assert parse_selector("43/p,q≠0,r=0") == (43, "p,q!=0,r=0")
    assert parse_selector("43/p, q≠0, r=0") == (43, "p,q!=0,r=0")
    with pytest.raises(UsageError):
        parse_selector("40")
    with pytest.raises(UsageError):
        parse_selector("43/nope")


def test_parse_params():
    assert parse_params(["p=3", "q=1"]) == {"p": 3, "q": 1}
    with pytest.raises(UsageError):
        parse_params(["p"])
    with pytest.raises(UsageError):
        parse_params(["p=x"])
    assert parse_params([" p = +3 ", "q=-2"]) == {"p": 3, "q": -2}
    # an optional sign and ASCII digits only: int() alone reads "1_0" as 10,
    # and "٣" (Arabic-Indic three) and "３" (fullwidth three) as 3
    for value in ("1_0", "٣", "３", "", "+", "3.0", "0x3", "1e3", "9" * 5000):
        with pytest.raises(UsageError):
            parse_params([f"p={value}"])


def test_verify_case_34():
    res = run_cli("verify", "--case", "34")
    assert res.returncode == 0
    assert "Equal" in res.stdout and "13" in res.stdout
    assert "0 mismatch" in res.stderr


def test_verify_case_46_p6_values():
    res = run_cli("verify", "--case", "46", "--param", "p=6", "--format", "json")
    assert res.returncode == 0
    rows = [json.loads(line) for line in res.stdout.splitlines()]
    assert [(r["support"], r["p_value"]) for r in rows] == [
        ("alpha_1", "5"), ("alpha_2", "2"), ("alpha_3", "3"),
    ]
    assert all(r["match"] for r in rows)
    assert all(r["budget"] == 15 for r in rows)


def test_pin_below_least_value(capsys):
    # the message names the least value when the pin leaves out every
    # sub-case selected; other families still run
    assert cli.main(["verify", "--case", "31", "--param", "p=1"]) == 2
    assert capsys.readouterr().err == "error: case 31/-: p = 1 is below its least value 2\n"
    assert cli.main(["verify", "--case", "all", "--param", "p=1"]) == 0
    assert "checked 78 reports: 78 match" in capsys.readouterr().err


def test_verify_json_exact_fractions_round_trip():
    res = run_cli("verify", "--case", "34", "--format", "json")
    row = json.loads(res.stdout.splitlines()[0])
    assert row["p_value"] == "13"
    assert row["theta"] == ["1", "5"]
    assert row["expected_theta"] == ["1", "5"]
    assert row["solve_stats"]["pivots"] >= 1


def test_verify_deterministic_output():
    def rows_without_timing(text):
        rows = [json.loads(line) for line in text.splitlines()]
        for row in rows:
            row["solve_stats"].pop("wall_ms")
        return rows

    first = run_cli("verify", "--case", "38", "--format", "json")
    second = run_cli("verify", "--case", "38", "--format", "json")
    assert rows_without_timing(first.stdout) == rows_without_timing(second.stdout)
    assert first.returncode == second.returncode == 0


def test_supports_case_38():
    res = run_cli("supports", "--case", "38")
    assert res.returncode == 0
    assert res.stdout.count("P=11") == 3
    assert "gamma_1,gamma_2" in res.stdout


def test_supports_json_format():
    res = run_cli("supports", "--case", "44", "--format", "json")
    assert res.returncode == 0
    rows = [json.loads(line) for line in res.stdout.splitlines()]
    first = rows[0]
    assert first["case"] == 44 and first["sub_case"] == "p=2"
    assert [s["support"] for s in first["minimal_supports"]] == [
        "alpha_1", "alpha_2", "alpha_3",
    ]
    assert first["excluded_by_certificates"][0]["sigma_prime"] == ["alpha'_1"]


def test_supports_case_31_p3():
    res = run_cli("supports", "--case", "31", "--param", "p=3")
    assert res.returncode == 0
    for key in ("{gamma_1}", "{gamma_3}", "{gamma_5}"):
        assert key in res.stdout
    assert "gamma_2" not in res.stdout.replace("gamma_2,", "")
    assert "not complete" in res.stderr  # Sigma' annotation


def test_export_compute_round_trip(tmp_path):
    out = tmp_path / "case41.json"
    res = run_cli(
        "export", "--case", "41", "--support", "gamma", "-o", str(out)
    )
    assert res.returncode == 0 and out.exists()
    res = run_cli("compute", str(out))
    assert res.returncode == 0
    assert "complete: true, P=5, budget=5, Equal, theta=(1)" in res.stdout
    res = run_cli("compute", str(out), "--format", "json")
    payload = json.loads(res.stdout)
    assert payload["p_value"] == "5" and payload["relation"] == "Equal"


def test_export_verify_round_trip_identical(tmp_path):
    out = tmp_path / "case34.json"
    run_cli("export", "--case", "34", "--support", "gamma_1", "-o", str(out))
    direct = run_cli("verify", "--case", "34", "--format", "json")
    computed = run_cli("compute", str(out), "--format", "json")
    row = json.loads(direct.stdout.splitlines()[0])
    payload = json.loads(computed.stdout)
    assert payload["p_value"] == row["p_value"]
    assert payload["theta"] == row["theta"]
    assert payload["budget"] == row["budget"]


# sha256 over the files `sphskel export --sweep smoke` writes for every family
# in sorted key order, the bare system (Gamma empty) first and then each option
EXPORT_SMOKE_SHA256 = "7b84fcb0871e298c4d3e6d0ef84e7901504787f3fbe6d29413af2b300ebf6696"


def test_export_smoke_files_identity(tmp_path):
    digest = hashlib.sha256()
    files = 0
    path = tmp_path / "export.json"
    smoke = cli.load_sweep_profile("smoke")
    for family, sub_case in sorted(catalog.FAMILIES):
        key = f"{family}/{sub_case}" if sub_case else str(family)
        (inst,) = catalog.sweep_instances(family, sub_case, profile=smoke)
        for support in [None] + [opt.key for opt in inst.options]:
            argv = ["export", "--case", key, "--sweep", "smoke", "-o", str(path)]
            assert cli.main(argv + (["--support", support] if support else [])) == 0
            digest.update(path.read_bytes())
            files += 1
    assert files == 108
    assert digest.hexdigest() == EXPORT_SMOKE_SHA256


def test_compute_sigma_empty_with_boundary(tmp_path):
    out = tmp_path / "empty.json"
    out.write_text(
        json.dumps(
            {
                "root_system": [{"series": "A", "rank": 1}],
                "sp": [],
                "sigma": [],
                "colors": [],
                "boundary": [{"name": "E", "rho": []}],
            }
        )
    )
    res = run_cli("compute", str(out))
    assert res.returncode == 0
    assert "P=0" in res.stdout


def test_compute_colors_that_do_not_span(tmp_path, capsys):
    # rho(D1) = -rho(D2) spans a line of the plane; the boundary divisors
    # complete it through a basis of all rho(D), and without them the
    # skeleton is not complete
    doc = {
        "root_system": [{"series": "A", "rank": 1}, {"series": "A", "rank": 1}],
        "sp": [],
        "sigma": [[1, 0], [0, 1]],
        "colors": [
            {"name": "D1", "rho": ["1", "1"], "moved_by": [0]},
            {"name": "D2", "rho": ["-1", "-1"], "moved_by": [1]},
        ],
        "boundary": [{"name": "E1", "rho": [-1, 0]}, {"name": "E2", "rho": [0, -1]}],
    }
    tail = ('"p_value": "0", "budget": 2, "relation": "StrictlyLess", "theta": ["0", "0"], '
            '"theta_unique": null, "solve_stats": {"pivots": 0}}')
    for name, boundary, complete in (("nonspan.json", doc["boundary"], "true"),
                                     ("nonspan-empty.json", [], "false")):
        path = tmp_path / name
        path.write_text(json.dumps({**doc, "boundary": boundary}))
        assert cli.main(["compute", "--format", "json", str(path)]) == 0
        assert capsys.readouterr().out == f'{{"complete": {complete}, {tail}\n'


def test_compute_parse_error_exit_2(tmp_path):
    out = tmp_path / "bad.json"
    out.write_text("{")
    res = run_cli("compute", str(out))
    assert res.returncode == 2
    assert "parse error" in res.stderr


def test_compute_invariant_violation_exit_3(tmp_path):
    out = tmp_path / "bad.json"
    out.write_text(
        json.dumps(
            {
                "root_system": [{"series": "A", "rank": 2}],
                "sp": [],
                "sigma": [[1, 0]],
                "colors": [
                    {"name": "D", "rho": ["1"], "moved_by": [0]},
                ],
                "boundary": [{"name": "E", "rho": [1]}],
            }
        )
    )
    res = run_cli("compute", str(out))
    assert res.returncode == 3
    assert "boundary-nonpositive" in res.stderr


def test_unknown_selector_exit_2():
    res = run_cli("verify", "--case", "99")
    assert res.returncode == 2
    assert "error" in res.stderr


def test_runtime_imports_only_the_standard_library():
    # -S keeps site-packages off the path, so a third-party import fails too
    code = (
        "import sys, sphskel.cli, sphskel.catalog\n"
        "print(sorted(m for m in sys.modules if m != '__main__'"
        " and m.split('.')[0] not in sys.stdlib_module_names | {'sphskel'}))"
    )
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    res = subprocess.run(
        [sys.executable, "-S", "-c", code],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == "[]"


def test_sweep_profile_smoke():
    res = run_cli(
        "verify", "--case", "50", "--sweep", "smoke", "--format", "json"
    )
    assert res.returncode == 0
    rows = [json.loads(line) for line in res.stdout.splitlines()]
    assert {r["params"]["q"] for r in rows} == {4}


def test_sweep_profile_deep_extends_every_range():
    # one-parameter families go 8 values further, two-parameter ones 3, and
    # 43/p,q,r!=0 one; test_acceptance.PINNED_OUTPUTS pins its verify JSON
    deep = cli.load_sweep_profile("deep")
    swept = [spec for spec in catalog.FAMILIES.values() if spec.ranges]
    assert len(deep) == len(swept)
    for spec in swept:
        extra = {1: 8, 2: 3, 3: 1}[len(spec.ranges)]
        entry = deep[f"{spec.family}/{spec.sub_case}" if spec.sub_case else str(spec.family)]
        assert entry == {
            name: list(range(r.start, r.stop + extra)) for name, r in spec.ranges.items()
        }, spec.key


def test_sweep_config_option(tmp_path, capsys):
    cfg = tmp_path / "sweeps.json"
    cfg.write_text(json.dumps({"default": {"31": {"p": [2]}}}))
    res = run_cli("verify", "--case", "31", "--format", "json", "--sweep-config", str(cfg))
    assert res.returncode == 0
    rows = [json.loads(line) for line in res.stdout.splitlines()]
    assert {r["params"]["p"] for r in rows} == {2}
    # a profile key takes the spellings --case takes
    cfg.write_text(json.dumps({"default": {"43/p, q≠0, r=0": {"p": [2], "q": [3]}}}))
    argv = ["verify", "--case", "43/p, q≠0, r=0", "--sweep-config", str(cfg)]
    assert cli.main(argv + ["--format", "json"]) == 0
    rows = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert rows and all(
        (r["sub_case"], r["params"]) == ("p,q!=0,r=0", {"p": 2, "q": 3, "r": 0}) for r in rows
    )


def test_verify_reports_sorted_canonically():
    res = run_cli("verify", "--case", "43", "--sweep", "smoke", "--format", "json")
    rows = [json.loads(line) for line in res.stdout.splitlines()]
    keys = [
        (r["case"], r["sub_case"], sorted(r["params"].items()), r["support"])
        for r in rows
    ]
    assert keys == sorted(keys)



# ---------------------------------------------------------------------------
# in-process: strict skeleton files, error mapping, what `match` checks

VALID_DOC = {
    "root_system": [{"series": "A", "rank": 2}],
    "sp": [],
    "sigma": [[1, 1]],
    "colors": [{"name": "D", "rho": ["1"], "moved_by": [0]}],
    "boundary": [{"name": "E", "rho": [-1]}],
}


def _color(doc):
    return doc["colors"][0]


def _old_coroot(doc, **fields):
    """Give the first color the coroot object of the older file format."""
    _color(doc)["coroot"] = {"index": 0, "scale": "1", **fields}


@pytest.mark.parametrize(
    "mutate, code, message",
    [
        pytest.param(lambda d: None, 0, "", id="valid"),
        pytest.param(lambda d: d["boundary"][0].update(rho=[-1.7]), 2, "parse error",
                     id="boundary-rho-float"),
        pytest.param(lambda d: d.update(sp=[True]), 2, "parse error", id="sp-bool"),
        pytest.param(lambda d: d["root_system"][0].update(rank="x"), 2, "parse error",
                     id="rank-string"),
        pytest.param(lambda d: d["root_system"][0].update(rank=2.0), 2, "parse error",
                     id="rank-float"),
        pytest.param(lambda d: d.update(sigma=[[1.0, 1]]), 2, "parse error", id="sigma-float"),
        pytest.param(lambda d: _color(d).update(moved_by=["0"]), 2, "parse error",
                     id="moved-by-string"),
        pytest.param(lambda d: _color(d).update(rho=[1.0]), 2, "parse error",
                     id="color-rho-float"),
        pytest.param(lambda d: _color(d).update(name=7), 2, "parse error", id="name-number"),
        # a fraction string is "n" or "n/d" in ASCII digits; Fraction alone
        # reads each of these as another number
        pytest.param(lambda d: _color(d).update(rho=["1_0"]), 2, "bad rational '1_0'",
                     id="color-rho-underscore"),
        pytest.param(lambda d: _color(d).update(rho=["\u0661"]), 2, "bad rational",
                     id="color-rho-arabic-indic-digit"),
        pytest.param(lambda d: _color(d).update(rho=["\uff11"]), 2, "bad rational",
                     id="color-rho-fullwidth-digit"),
        pytest.param(lambda d: _color(d).update(rho=["1.0"]), 2, "bad rational",
                     id="color-rho-decimal"),
        pytest.param(lambda d: _color(d).update(rho=["1e0"]), 2, "bad rational",
                     id="color-rho-exponent"),
        pytest.param(lambda d: _color(d).update(rho=[" 1"]), 2, "bad rational",
                     id="color-rho-space"),
        pytest.param(lambda d: _color(d).update(rho=[1]), 0, "", id="color-rho-json-int"),
        # a color's functional is integral on Sigma: "1/2" reads, and is refused
        pytest.param(lambda d: _color(d).update(rho=["1/2"]), 3, "[color-rho-integer]",
                     id="color-rho-half"),
        pytest.param(lambda d: d.update(boundry=[]), 2, "unknown key 'boundry'",
                     id="unknown-top-level-key"),
        pytest.param(lambda d: d["root_system"][0].update(serie="A"), 2, "parse error",
                     id="unknown-component-key"),
        pytest.param(lambda d: _color(d).update(moved=[0]), 2, "parse error",
                     id="unknown-color-key"),
        # older files carried a coroot reference, which Sigma now forces: a
        # coroot object is refused at parse time, well-formed or not
        pytest.param(lambda d: _old_coroot(d), 2, "unknown key 'coroot'",
                     id="coroot-key-rejected"),
        pytest.param(lambda d: _old_coroot(d, index=False), 2, "unknown key 'coroot'",
                     id="coroot-index-bool"),
        pytest.param(lambda d: _old_coroot(d, index=-1), 2, "unknown key 'coroot'",
                     id="coroot-index-out-of-range"),
        pytest.param(lambda d: _old_coroot(d, scale="2/\u0662"), 2, "unknown key 'coroot'",
                     id="coroot-scale-arabic-indic-digit"),
        pytest.param(lambda d: _old_coroot(d, scale=1), 2, "unknown key 'coroot'",
                     id="coroot-scale-json-int"),
        pytest.param(lambda d: _old_coroot(d, scale="1_0"), 2, "unknown key 'coroot'",
                     id="coroot-scale-underscore"),
        pytest.param(lambda d: _old_coroot(d, scale="1/0"), 2, "unknown key 'coroot'",
                     id="coroot-scale-zero-denominator"),
        pytest.param(lambda d: _old_coroot(d, scal="1"), 2, "unknown key 'coroot'",
                     id="unknown-coroot-key"),
        pytest.param(lambda d: d["boundary"][0].update(mult=1), 2, "parse error",
                     id="unknown-boundary-key"),
        pytest.param(lambda d: d["boundary"][0].update(name="D"), 3,
                     "[divisor-names-unique]", id="color-and-boundary-share-a-name"),
        pytest.param(lambda d: d["boundary"].append({"name": "E", "rho": [-1]}), 3,
                     "[divisor-names-unique]", id="boundary-divisors-share-a-name"),
        # alpha_1^vee is 1 on alpha_1 + alpha_2: rho(D1) = 3 would read as
        # P = 5 over the budget 3, a Violation
        pytest.param(lambda d: d.update(colors=[
            {"name": "D1", "rho": ["3"], "moved_by": [0]},
            {"name": "D2", "rho": ["1"], "moved_by": [1]},
        ]), 3, "[color-forced]", id="color-rho-not-forced"),
        # a repeated index would otherwise read as one
        pytest.param(lambda d: d.update(sp=[1, 1]), 2, "parse error", id="sp-repeated"),
        # refused before a 10^30 x 10^30 Cartan matrix is allocated
        pytest.param(lambda d: d["root_system"][0].update(rank=10**30), 2, "parse error",
                     id="rank-huge"),
        pytest.param(lambda d: _color(d).update(moved_by=[0, 0]), 3, "[moved-by-distinct]",
                     id="moved-by-repeated"),
        # a mutation that returns text or bytes writes them as the file: json keeps
        # a repeated key's last value, here an empty boundary
        pytest.param(lambda d: json.dumps(d)[:-1] + ', "boundary": []}', 2,
                     "repeated key 'boundary'", id="top-level-key-repeated"),
        pytest.param(lambda d: json.dumps(d).replace('"rho": ["1"]', '"rho": ["1"], "rho": ["2"]'),
                     2, "repeated key 'rho'", id="color-key-repeated"),
        pytest.param(lambda d: json.dumps(d).replace('"rho": [-1]', '"rho": [-1], "rho": [-1]'),
                     2, "repeated key 'rho'", id="boundary-key-repeated"),
        pytest.param(lambda d: b"\xff" + json.dumps(d).encode(), 2, "parse error",
                     id="not-utf-8"),
    ],
)
def test_compute_rejects_malformed_file(tmp_path, capsys, mutate, code, message):
    doc = copy.deepcopy(VALID_DOC)
    text = mutate(doc)
    text = json.dumps(doc) if text is None else text
    path = tmp_path / "skel.json"
    path.write_bytes(text if isinstance(text, bytes) else text.encode())
    assert cli.main(["compute", str(path)]) == code
    assert message in capsys.readouterr().err


def test_internal_errors_propagate(monkeypatch):
    def broken(skel):
        raise ValueError("internal bug")

    monkeypatch.setattr(mukai, "check_conjecture", broken)
    with pytest.raises(ValueError, match="internal bug"):
        cli.main(["verify", "--case", "41"])


@pytest.mark.parametrize(
    "argv",
    [
        ["export", "--case", "41", "--support", "nope"],
        ["verify", "--case", "31", "--param", "p=3", "--param", "p=4"],
        # a non-string argument is a sweep profile, written to a config file
        ["verify", "--case", "31", "--sweep-config", {"31": {"p": 2}}],
        ["verify", "--case", "31", "--sweep-config", {"31": {"p": [2.5]}}],
        ["verify", "--case", "41", "--sweep-config", {"99": {"p": [2]}}],
        ["verify", "--case", "43", "--sweep-config", {"43/p,q!=0,r=1": {"p": [1]}}],
        ["verify", "--case", "34", "--sweep-config", {"34": {"p": [7]}}],
        ["verify", "--case", "31", "--sweep-config", {"31": {"q": [2]}}],
        # the whole profile is checked, not only the entries of the selection
        ["verify", "--case", "41", "--sweep-config", {"31": {"p": [True]}}],
        ["verify", "--case", "41", "--sweep-config", {"31": {"p": []}}],
        ["verify", "--case", "41", "--sweep-config", {"31": [2]}],
        ["verify", "--case", "41", "--sweep-config", {"42": {"p": [1]}}],
        ["verify", "--case", "41", "--sweep-config", ["31"]],
        ["verify", "--case", "41", "--sweep-config", []],
        # values below a free parameter's least value, the start of its range
        ["verify", "--case", "31", "--sweep-config", {"31": {"p": [1, 2]}}],
        ["verify", "--case", "41", "--sweep-config", {"48/p>=1": {"p": [1]}}],
        # a repeated value would run its instance twice
        ["verify", "--case", "31", "--sweep-config", {"31": {"p": [2, 2]}}],
        # two spellings of one case key: one entry would be dropped
        ["verify", "--case", "43", "--sweep-config",
         {"43/p,q!=0,r=0": {"p": [1]}, "43/p, q≠0, r=0": {"p": [2]}}],
        # A_102 exceeds the largest total rank a root system may have
        ["verify", "--case", "31", "--param", "p=51"],
        # a pin below the least value leaves out every sub-case selected
        ["verify", "--case", "31", "--param", "p=1"],
        # bytes are a raw config file: json alone keeps a repeated key's last value
        ["verify", "--case", "31", "--sweep-config",
         b'{"default": {}, "default": {"31": {"p": [2]}}}'],
        ["verify", "--case", "31", "--sweep-config",
         b'{"default": {"31": {"p": [2]}, "31": {"p": [3]}}}'],
        ["verify", "--case", "31", "--sweep-config", b'{"default": {"31": {"p": [2], "p": [3]}}}'],
        ["verify", "--case", "31", "--sweep-config", b'\xff{"default": {}}'],
    ],
    ids=[
        "export-unknown-support", "param-repeated",
        "profile-value-not-a-list", "profile-value-float", "profile-unknown-case",
        "profile-unknown-sub-case", "profile-fixed-case-parameter",
        "profile-unknown-parameter", "profile-value-bool", "profile-value-empty",
        "profile-entry-not-an-object", "profile-parameter-one-sub-case-lacks",
        "profile-not-an-object", "profile-empty-list", "profile-value-below-least",
        "profile-value-below-least-of-sub-case", "profile-value-repeated",
        "profile-case-named-twice",
        "param-rank-too-large", "param-below-least", "config-profile-repeated", "config-case-repeated",
        "config-parameter-repeated", "config-not-utf-8",
    ],
)
def test_user_errors_exit_2(tmp_path, capsys, argv):
    out = tmp_path / "out.json"
    if argv[0] == "export":
        argv = argv + ["-o", str(out)]
    cfg = tmp_path / "sweeps.json"
    profile = [arg for arg in argv if not isinstance(arg, str)]
    raw = bool(profile) and isinstance(profile[0], bytes)
    if raw:
        cfg.write_bytes(profile[0])
    elif profile:
        cfg.write_text(json.dumps({"default": profile[0]}))
    argv = [arg if isinstance(arg, str) else str(cfg) for arg in argv]
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert ("sweep profile" in err) == (bool(profile) and not raw)
    assert ("sweep config" in err) == raw
    assert not out.exists()


def test_match_requires_unique_theta_on_equal(monkeypatch, capsys):
    inst = catalog.instantiate(41)
    opt = inst.option("gamma")
    assert cli.evaluate_option(inst, opt).match is True
    monkeypatch.setattr(exactlp, "unique_optimum", lambda problem, sol: False)
    assert cli.evaluate_option(inst, opt).match is False
    assert cli.main(["verify", "--case", "41"]) == 1
    assert "1 mismatch" in capsys.readouterr().err


def test_match_requires_stated_budget(monkeypatch, capsys):
    inst = catalog.instantiate(41)
    wrong = dataclasses.replace(inst, expected_budget=inst.expected_budget + 1)
    assert cli.evaluate_option(wrong, wrong.option("gamma")).match is False
    sweep = catalog.sweep_instances

    def wrong_budgets(**kwargs):
        return [
            dataclasses.replace(i, expected_budget=i.expected_budget + 1)
            for i in sweep(**kwargs)
        ]

    monkeypatch.setattr(catalog, "sweep_instances", wrong_budgets)
    assert cli.main(["verify", "--case", "41"]) == 1
    assert "1 mismatch" in capsys.readouterr().err
