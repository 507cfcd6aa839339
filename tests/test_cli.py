import json

import pytest

from d4fusion import cli, reports
from d4fusion.reports import Certificate, LemmaReport


@pytest.fixture(autouse=True)
def seeded_builders(bundles):
    """Reuse the session bundles inside the CLI instead of rebuilding."""
    cli._BUILDERS.update({
        "omega8plus2": bundles["omega8plus2"],
        "affine": bundles["affine"],
        "frame": bundles["frame"],
    })
    yield


def run(args, tmp_path):
    return cli.main(args + ["--cache-dir", str(tmp_path)])


def test_construct_all(tmp_path, capsys):
    code = run(["construct", "--model", "all"], tmp_path)
    assert code == 0
    out = capsys.readouterr().out
    assert "construct-omega8plus2" in out
    cert = json.loads((tmp_path / "certificate-construct.json").read_text())
    assert cert["overall"] == "pass"
    by_id = {r["lemma_id"]: r for r in cert["reports"]}
    assert by_id["construct-omega8plus2"]["witnesses"]["ambient_order"] == 174182400
    assert by_id["construct-affine"]["witnesses"]["ambient_order"] == 1290240
    for model in ("omega8plus2", "affine", "frame"):
        assert by_id["construct-%s" % model]["witnesses"]["sylow_order"] == 4096


def test_verify_single_lemma(tmp_path):
    code = run(["verify", "--lemma", "cent"], tmp_path)
    assert code == 0
    cert = json.loads((tmp_path / "certificate-verify.json").read_text())
    ids = {r["lemma_id"] for r in cert["reports"]}
    assert {"cent@omega8plus2", "cent@affine", "cent@frame"} <= ids
    for r in cert["reports"]:
        assert r["witnesses"]["Z_order"] == 2


def test_verify_single_model(tmp_path):
    code = run(["verify", "--model", "affine", "--lemma", "frattini"], tmp_path)
    assert code == 0
    cert = json.loads((tmp_path / "certificate-verify.json").read_text())
    assert [r["lemma_id"] for r in cert["reports"]] == ["frattini@affine"]
    with pytest.raises(SystemExit):
        run(["verify", "--model", "bogus"], tmp_path)


def test_verify_accepts_spec_alias(tmp_path):
    code = run(["verify", "--lemma", "wc"], tmp_path)
    assert code == 0
    cert = json.loads((tmp_path / "certificate-verify.json").read_text())
    assert all(r["lemma_id"].startswith("extraspecial@") for r in cert["reports"])


def test_verify_valuation(tmp_path):
    # without --q the valuation lemma runs q = 3 and echoes it
    for q in (["--q", "3"], []):
        code = run(["verify", "--lemma", "appendix"] + q, tmp_path)
        assert code == 0
        cert = json.loads((tmp_path / "certificate-verify.json").read_text())
        assert cert["config"]["q"] == 3
        (rep,) = cert["reports"]
        assert rep["witnesses"]["pinned"]["POmega8+_q3"] == 12


def test_verify_reports_deterministic_modulo_timing(tmp_path):
    run(["verify", "--lemma", "frattini"], tmp_path)
    first = json.loads((tmp_path / "certificate-verify.json").read_text())
    run(["verify", "--lemma", "frattini"], tmp_path)
    second = json.loads((tmp_path / "certificate-verify.json").read_text())

    def strip(doc):
        for r in doc["reports"]:
            r.pop("elapsed_ms", None)
        return doc

    assert strip(first) == strip(second)


def test_unknown_lemma_is_configuration_error(tmp_path):
    code = run(["verify", "--lemma", "bogus"], tmp_path)
    assert code == 2


def test_lemma_with_no_check_on_the_model_is_configuration_error(tmp_path, capsys):
    # a8 runs on the affine model only: an empty certificate must not pass
    code = run(["verify", "--model", "frame", "--lemma", "a8"], tmp_path)
    assert code == 2
    err = capsys.readouterr().err
    assert "a8" in err and "frame" in err
    assert not (tmp_path / "certificate-verify.json").exists()
    code = run(["verify", "--lemma", "a8"], tmp_path)
    assert code == 0
    cert = json.loads((tmp_path / "certificate-verify.json").read_text())
    assert [r["lemma_id"] for r in cert["reports"]] == ["a8@affine"]


def test_report_collects_and_flags_failures(tmp_path):
    cert = Certificate(config={})
    cert.add(LemmaReport("synthetic", "fail", {"reason": "planted"}, 0))
    cert.write(tmp_path / "certificate-synthetic.json")
    code = run(["report"], tmp_path)
    assert code == 1


@pytest.mark.parametrize("flag", [["--jobs", "3"], ["--seed", "1"],
                                  ["--action", "o2"], ["--action", "classes"]])
def test_removed_flags_are_refused(tmp_path, flag):
    command = ["fusion"] if flag[0] == "--action" else ["verify", "--lemma", "cent"]
    with pytest.raises(SystemExit) as exc:
        run(command + flag, tmp_path)
    assert exc.value.code == 2


def test_fusion_o2_action(tmp_path):
    # `build` reports the fusion classes and the radical in one run
    code = run(["fusion", "--variant", "O8p2", "--action", "build"], tmp_path)
    assert code == 0
    cert = json.loads((tmp_path / "certificate-fusion.json").read_text())
    (frep,) = cert["fusion_reports"]
    assert frep["variant"] == "O8p2"
    assert frep["essential_count"] == 4
    assert frep["o2_order"] == 1
    assert len(frep["autFE_orders"]) == 6


@pytest.mark.parametrize("args", [
    ["verify", "--model", "affine", "--lemma", "cent", "--q", "99"],
    ["verify", "--lemma", "all", "--q", "5"],
    ["verify", "--lemma", "cent", "--budget-secs", "-1"],
    ["verify", "--lemma", "valuation", "--q", "4"],
    ["verify", "--lemma", "valuation", "--q", "1"],
    ["verify", "--lemma", "valuation", "--budget-secs", "nan"],
    ["verify", "--lemma", "valuation", "--budget-secs", "inf"],
])
def test_stray_q_and_bad_budget_are_configuration_errors(tmp_path, capsys, args):
    assert run(args, tmp_path) == 2
    assert "configuration error" in capsys.readouterr().err
    assert not (tmp_path / "certificate-verify.json").exists()


@pytest.mark.parametrize("where", ["cache-dir flag", "cache-dir variable", "out"])
def test_unusable_output_location_is_a_configuration_error(tmp_path, capsys, monkeypatch,
                                                           where):
    def no_build(*args, **kwargs):
        raise AssertionError("a model was built")

    monkeypatch.setattr(cli, "build_bundles", no_build)
    blocker = tmp_path / "a-file"
    blocker.write_text("")
    args = ["verify", "--lemma", "cent"]
    if where == "cache-dir flag":
        args += ["--cache-dir", str(blocker)]
    elif where == "cache-dir variable":
        monkeypatch.setenv("D4FUSION_CACHE", str(blocker))
    else:
        args += ["--cache-dir", str(tmp_path), "--out", str(tmp_path / "missing" / "x.json")]
    assert cli.main(args) == 2
    assert "configuration error" in capsys.readouterr().err
    assert blocker.read_text() == ""
    assert sorted(p.name for p in tmp_path.iterdir()) == ["a-file"]


@pytest.mark.parametrize("refused", [["--budget-secs", "nan"], ["--out", "missing/x.json"]])
def test_refused_configuration_creates_no_cache_directory(tmp_path, capsys, monkeypatch,
                                                          refused):
    monkeypatch.chdir(tmp_path)
    cache = tmp_path / "new-cache"
    args = ["verify", "--lemma", "valuation", "--cache-dir", str(cache)] + refused
    assert cli.main(args) == 2
    assert "configuration error" in capsys.readouterr().err
    assert not cache.exists()


def test_fusion_compare_refuses_a_variant(tmp_path, capsys):
    assert run(["fusion", "--action", "compare", "--variant", "PO8p3"], tmp_path) == 2
    assert "--variant applies to --action build only" in capsys.readouterr().err
    assert not (tmp_path / "certificate-fusion.json").exists()
    # without --variant, build reads O8p2 and compare echoes it, as before
    for action in ("build", "compare"):
        args = cli.make_parser().parse_args(["fusion", "--action", action])
        assert args.variant is None and cli._variant(args) == "O8p2"


def test_isomorphism_budget_overrun_exits_2(tmp_path, capsys, monkeypatch):
    from d4fusion import automorphisms, structure
    from d4fusion.perms import ResourceError

    def overrun(ctx1, ctx2, budget_secs):
        raise ResourceError("isomorphism search exceeded its budget",
                            stats={"nodes": 7})

    monkeypatch.setattr(structure, "run_battery",
                        lambda ctx, ids: [LemmaReport("stub", "pass", {}, 0)])
    monkeypatch.setattr(automorphisms, "find_isomorphism", overrun)
    assert run(["verify", "--lemma", "all"], tmp_path) == 2
    err = capsys.readouterr().err
    assert "resource error: isomorphism affine-omega8plus2" in err
    assert "after 7 nodes" in err
    assert not (tmp_path / "certificate-verify.json").exists()


def test_config_validation():
    with pytest.raises(Exception):
        cli.RunConfig(command="verify", budget_secs=-1)


def test_env_var_cache_dir(monkeypatch, tmp_path):
    monkeypatch.setenv("D4FUSION_CACHE", str(tmp_path / "envcache"))
    path = cli.resolve_cache_dir(None)
    assert str(path).endswith("envcache")
    explicit = cli.resolve_cache_dir(str(tmp_path / "flagged"))
    assert str(explicit).endswith("flagged")


def test_report_does_not_count_itself(tmp_path):
    cert = Certificate(config={})
    cert.add(LemmaReport("synthetic", "pass", {}, 0))
    cert.write(tmp_path / "certificate-synthetic.json")
    counts = []
    for _ in range(2):
        assert run(["report"], tmp_path) == 0
        doc = json.loads((tmp_path / "certificate-report.json").read_text())
        counts.append(len(doc["reports"]))
    assert counts == [1, 1]
    own = tmp_path / "certificate-own.json"
    for _ in range(2):
        assert run(["report", "--out", str(own)], tmp_path) == 0
        assert len(json.loads(own.read_text())["reports"]) == 1


def test_interrupted_write_keeps_previous_file(tmp_path, monkeypatch):
    path = tmp_path / "certificate-verify.json"
    first = Certificate(config={})
    first.add(LemmaReport("first", "pass", {}, 0))
    first.write(path)
    before = path.read_text()

    def broken_dump(*args, **kwargs):
        raise OSError("disk full")

    monkeypatch.setattr(reports.json, "dump", broken_dump)
    second = Certificate(config={})
    second.add(LemmaReport("second", "fail", {}, 0))
    with pytest.raises(OSError):
        second.write(path)
    assert path.read_text() == before
    assert json.loads(before)["reports"][0]["lemma_id"] == "first"
    assert [p.name for p in tmp_path.iterdir()] == [path.name]


def test_fusion_compare_builds_one_context_per_model(tmp_path, monkeypatch):
    from types import SimpleNamespace

    from d4fusion import fusion
    built = {}

    def fake_build(variant, bundle, ctx, **kwargs):
        built[variant] = ctx
        return variant

    monkeypatch.setattr(cli, "build_bundles", lambda config, models: {
        m: SimpleNamespace(sylow=None) for m in models})
    monkeypatch.setattr(fusion, "build_fusion_system", fake_build)
    monkeypatch.setattr(fusion, "fingerprint_fusion", lambda fs: (fs, (), ()))
    assert run(["fusion", "--action", "compare"], tmp_path) == 0
    assert built["O8p2"] is built["O8p2x3"]
    assert built["PO8p3"] is built["PO8p3x3"]
    assert built["O8p2"] is not built["PO8p3"]


def test_fusion_o8p2x3_repeats_in_one_cache_dir(tmp_path, fusion_systems,
                                                fusion_partitions):
    tables = []
    for _ in range(2):
        assert run(["fusion", "--variant", "O8p2x3"], tmp_path) == 0
        cert = json.loads((tmp_path / "certificate-fusion.json").read_text())
        (frep,) = cert["fusion_reports"]
        assert frep["notes"]["order3_source"] == "root-triality"
        tables.append(frep["class_table"])
    assert tables[0] == tables[1]
    assert not list(tmp_path.glob("order3-*.checkpoint.json"))
    fs = fusion_systems["O8p2x3"]
    expected = fusion_partitions["O8p2x3"].class_table(fs.s.order_of)
    assert [(r["order"], r["size"], r["count"]) for r in tables[0]] == list(expected)


# (element order, class size, class count) of the O8p2 fusion classes
O8P2_CLASS_TABLE = [[1, 1, 1], [2, 68, 3], [2, 103, 1], [2, 188, 1], [4, 40, 1],
                    [4, 448, 3], [4, 576, 1], [4, 1384, 1], [8, 128, 2]]


def test_fusion_compare_builds_candidates_and_slots_once_per_model(tmp_path,
                                                                    monkeypatch):
    from d4fusion import fusion
    calls = dict.fromkeys(("essential_candidates", "chamber_parabolic_slots",
                           "frame_parabolic_slots"), 0)
    for name in calls:
        def counted(*args, _real=getattr(fusion, name), _name=name):
            calls[_name] += 1
            return _real(*args)
        monkeypatch.setattr(fusion, name, counted)
    assert run(["fusion", "--action", "compare"], tmp_path) == 0
    # one context per model; each model has two frame groups
    assert calls == {"essential_candidates": 2, "chamber_parabolic_slots": 1,
                     "frame_parabolic_slots": 2}
    cert = json.loads((tmp_path / "certificate-fusion.json").read_text())
    (rep,) = cert["reports"]
    witnesses = rep["witnesses"]
    assert witnesses["O8p2"]["class_table"] == O8P2_CLASS_TABLE
    x3_involutions = [size for order, size, count in witnesses["O8p2x3"]["class_table"]
                      if order == 2 for _ in range(count)]
    assert sorted(x3_involutions) == [103, 188, 204]
    tables = [str(w["class_table"]) for w in witnesses.values()]
    assert len(set(tables)) == 4
