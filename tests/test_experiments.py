"""Experiment plumbing: strict config, CSV/JSON outputs, CLI, determinism.

End-to-end runs use small chains so the whole module stays fast; the
physics of each experiment is covered by the acceptance suite.
"""

import csv
import json
import os
import shutil
import tracemalloc

import numpy as np
import pytest

from dimerchain import eig
from dimerchain.experiments import cli, runner
from dimerchain.experiments.config import (
    ConfigError,
    EXPERIMENTS,
    RunConfig,
    load_config,
    parse_config,
)
from dimerchain.experiments.records import (
    COLUMNS,
    SweepRecord,
    make_record,
    write_records,
    write_vectors,
)
from dimerchain.model import ChainGeometry, build_two_hamiltonian


def write_cfg(tmp_path, doc, name="cfg.json"):
    p = tmp_path / name
    p.write_text(json.dumps(doc), encoding="utf-8")
    return str(p)


def read_csv(path):
    with open(path, newline="", encoding="utf-8") as f:
        return list(csv.reader(f))


# ----------------------------------------------------------- config


def test_unknown_top_level_key():
    with pytest.raises(ConfigError, match="kd_over_pie"):
        parse_config({"experiment": "spectrum", "kd_over_pie": 0.25})


def test_unknown_nested_keys():
    with pytest.raises(ConfigError, match="solver"):
        parse_config({"experiment": "spectrum", "solver": {"Mode": "dense"}})
    with pytest.raises(ConfigError, match="disorder"):
        parse_config({"experiment": "disorder", "disorder": {"sigma": 0.1}})
    with pytest.raises(ConfigError, match="in N: by"):
        parse_config({"experiment": "spectrum",
                      "N": {"start": 2, "stop": 6, "by": 2}})


def test_range_parsing_inclusive():
    cfg = parse_config({"experiment": "scaling",
                        "N": {"start": 50, "stop": 150, "step": 10}})
    assert cfg.N == tuple(range(50, 151, 10))
    assert cfg.N[-1] == 150
    cfg = parse_config({"experiment": "spectrum", "N": [4, 8]})
    assert cfg.N == (4, 8)
    cfg = parse_config({"experiment": "spectrum", "N": 12})
    assert cfg.N == (12,)


def test_range_validation():
    with pytest.raises(ConfigError, match="start and stop"):
        parse_config({"experiment": "spectrum", "N": {"start": 2}})
    with pytest.raises(ConfigError, match="step"):
        parse_config({"experiment": "spectrum",
                      "N": {"start": 2, "stop": 6, "step": 0}})


def test_experiment_required_and_matched():
    with pytest.raises(ConfigError, match="experiment"):
        parse_config({})
    with pytest.raises(ConfigError, match="does not match"):
        parse_config({"experiment": "spectrum"}, experiment="defect")
    with pytest.raises(ConfigError, match="unknown experiment"):
        parse_config({"experiment": "chaos"})
    # subcommand alone may set the experiment
    assert parse_config({}, experiment="spectrum").experiment == "spectrum"


def test_seed_mandatory_for_disorder_sampling():
    doc = {"experiment": "disorder", "disorder": {"delta": 0.01, "samples": 3}}
    with pytest.raises(ConfigError, match="seed"):
        parse_config(doc)
    assert parse_config({**doc, "seed": 9}).seed == 9
    # no sampling -> no seed requirement
    parse_config({"experiment": "disorder", "disorder": {"delta": 0.0}})


@pytest.mark.parametrize("doc,msg", [
    ({"solver": {"mode": "qr"}}, "solver.mode"),
    ({"solver": {"tol": 0}}, "solver.tol"),
    ({"solver": {"count": 0}}, "solver.count"),
    ({"disorder": {"delta": 0.5}}, "disorder.delta"),
    ({"disorder": {"samples": -1}}, "disorder.samples"),
    ({"gamma": 0}, "gamma"),
    ({"kernel": "isotropic"}, "kernel"),
    ({"jobs": 0}, "jobs"),
    ({"seed": -1}, "seed"),
    ({"seed": 2**64}, "seed"),
    ({"kd_over_pi": 1.5}, "kd_over_pi"),
    ({"kd_over_pi": []}, "kd_over_pi"),
    ({"solver": {"fallback": False}}, "unknown key.* in solver: fallback"),
    ({"dump_vectors": "no"}, "dump_vectors"),
    ({"dump_vectors": 1}, "dump_vectors"),
    ({"kd_over_pi": 0.5}, "kd_over_pi"),
    ({"N": [50.9]}, "N must be an integer"),
    ({"N": {"start": 2, "stop": 6, "step": 1.5}}, "N step"),
    ({"N": {"start": 2.5, "stop": 6}}, "N start"),
    ({"N": [True]}, "N must be an integer"),
    ({"seed": True}, "seed"),
    ({"seed": 1.0}, "seed"),
    ({"jobs": 2.0}, "jobs"),
    ({"M": [1.5]}, "M must be an integer"),
    ({"defect_sites": [3.0]}, "defect_sites"),
    ({"solver": {"count": True}}, "solver.count"),
    ({"solver": {"max_restarts": "9"}}, "solver.max_restarts"),
    ({"solver": {"max_subspace": 2.5}}, "solver.max_subspace"),
    ({"disorder": {"samples": 2.0}}, "disorder.samples"),
    ({"gamma": True}, "gamma"),
    ({"kd_over_pi": "0.2"}, "kd_over_pi"),
    ({"kd_over_pi": [0.2, True]}, "kd_over_pi"),
    ({"Kd_over_pi": ["1"]}, "Kd_over_pi"),
    ({"solver": {"tol": "1e-9"}}, "solver.tol"),
    ({"disorder": {"delta": "0.01"}}, "disorder.delta"),
    ({"solver": {"count": 8, "max_subspace": 4}},
     "solver.count must not exceed max_subspace"),
    ({"solver": {"max_subspace": -3}}, "solver.max_subspace"),
    ({"solver": {"max_restarts": -1}}, "solver.max_restarts"),
    ({"Kd_over_pi": [0.0, 2.0]}, "Kd_over_pi"),
    ({"Kd_over_pi": [-0.5]}, "Kd_over_pi"),
    ({"d_over_lambda0": [0]}, "d_over_lambda0"),
])
def test_field_validation(doc, msg):
    with pytest.raises(ConfigError, match=msg):
        parse_config({"experiment": "spectrum", **doc})


@pytest.mark.parametrize("exp,doc,msg", [
    ("defect", {"N": [20], "defect_sites": [0]}, "defect site 0"),
    ("defect", {"N": [20], "defect_sites": [25]}, "defect site 25"),
    ("defect", {"N": [20, 2]}, "defect site 1"),  # default N // 2
    ("freespace", {"N": [20], "defect_sites": [20]}, "defect site 20"),
    ("freespace", {"N": [20], "defect_sites": [-1]}, "defect site -1"),
    ("scaling", {"N": [1]}, "N values must be at least 2"),
    ("phase-diagram", {"N": [1, 8]}, "N values must be at least 2"),
    ("freespace", {"N": [1]}, "N values must be at least 2"),
    ("map-check", {"M": [0, 1]}, "M values must be at least 1"),
    ("spectrum", {"N": [6, 111]}, "N=111 .* dense cap"),
    ("freespace", {"N": [20]}, "free-space kernel"),  # default waveguide
])
def test_domain_checked_at_parse(exp, doc, msg):
    # each of these used to fail with a traceback after work had started
    with pytest.raises(ConfigError, match=msg):
        parse_config({"experiment": exp, **doc})


def test_domain_limits_accepted():
    parse_config({"experiment": "defect", "N": [20], "defect_sites": [1, 18]})
    parse_config({"experiment": "freespace", "N": [20], "kernel": "parallel",
                  "defect_sites": [0, 19]})
    parse_config({"experiment": "spectrum", "N": [2, 110]})
    parse_config({"experiment": "map-check", "M": [1]})


def test_dense_cap_checked_at_parse():
    # each run's largest dense eigenproblem, refused one past eig.DENSE_CAP
    # before any matrix is built: the pair sector of spectrum (N(N-1)/2),
    # the missing-site chain (N - 1), and map-check's relative model
    # (N - 1) and defect relative model (2M)
    cap = eig.DENSE_CAP
    for exp, extra in (("defect", {}), ("freespace", {"kernel": "transverse"}),
                       ("map-check", {})):
        parse_config({"experiment": exp, "N": [10, cap + 1], **extra})
        with pytest.raises(ConfigError, match=f"N={cap + 2} .* dimension "
                                              f"{cap + 1}, above the dense cap"):
            parse_config({"experiment": exp, "N": [cap + 2, 10], **extra})
    parse_config({"experiment": "spectrum", "N": [10, 110]})  # D = 5995
    with pytest.raises(ConfigError, match="N=111 .* dimension 6105, above "
                                          "the dense cap"):
        parse_config({"experiment": "spectrum", "N": [111, 10]})
    parse_config({"experiment": "map-check", "M": [1, cap // 2]})
    with pytest.raises(ConfigError, match=f"M={cap // 2 + 1} .* dense cap"):
        parse_config({"experiment": "map-check", "M": [cap // 2 + 1]})


def test_kd_below_half_pi_checked_at_parse():
    # dimer asymptotics and the defect secular equation need kd < pi/2
    for exp in ("spectrum", "phase-diagram", "scaling", "defect", "disorder"):
        with pytest.raises(ConfigError, match="kd_over_pi"):
            parse_config({"experiment": exp, "kd_over_pi": [0.2, 0.6]})
    with pytest.raises(ConfigError, match="kd_over_pi"):
        parse_config({"experiment": "map-check", "N": [20], "kd_over_pi": 0.6})
    # the relative models and free-space chains take kd up to pi
    parse_config({"experiment": "map-check", "kd_over_pi": 0.6})
    parse_config({"experiment": "freespace", "kd_over_pi": 0.6,
                  "kernel": "transverse"})


def test_legacy_solver_mode_accepted_and_ignored():
    plain = parse_config({"experiment": "scaling", "N": [8]})
    for mode in ("dense", "si-direct", "si-matfree"):
        cfg = parse_config({"experiment": "scaling", "N": [8],
                            "solver": {"mode": mode}})
        assert cfg.run_hash() == plain.run_hash()


def test_run_hash_stable_and_sensitive():
    a = parse_config({"experiment": "spectrum", "N": [8]})
    b = parse_config({"experiment": "spectrum", "N": [8]})
    c = parse_config({"experiment": "spectrum", "N": [9]})
    assert a.run_hash() == b.run_hash()
    assert a.run_hash() != c.run_hash()
    assert len(a.run_hash()) == 10


def test_load_config_overrides(tmp_path):
    path = write_cfg(tmp_path, {"experiment": "spectrum", "N": [6],
                                "solver": {"count": 4}})
    cfg = load_config(path, overrides={"out": str(tmp_path / "o"), "seed": 3,
                                       "jobs": 2})
    assert cfg.out == str(tmp_path / "o")
    assert cfg.seed == 3
    assert cfg.jobs == 2
    assert cfg.solver.count == 4  # non-overridden solver keys survive


def test_load_config_bad_json(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text("{not json", encoding="utf-8")
    with pytest.raises(ConfigError, match="invalid JSON"):
        load_config(str(p))


def test_load_config_missing_file(tmp_path):
    with pytest.raises(ConfigError, match="cannot read config"):
        load_config(str(tmp_path / "nope.json"))


# ----------------------------------------------------------- records


def test_make_record_derives_decay():
    r = make_record("spectrum", 8, 0.25 * np.pi, "two-exc", "DimerI",
                    1.0 - 0.25j, "dense", 1e-12, 0.1, 0)
    assert r.decay_rate == 0.5
    assert r.sample_index == -1


def test_record_validation_catches_mismatch():
    r = SweepRecord("spectrum", 8, 0.5, "two-exc", "", 1.0, -0.25, 0.7,
                    "dense", 0.0, 0.0, 0, -1)
    with pytest.raises(ValueError, match="decay_rate"):
        r.validate()


def test_csv_rfc4180(tmp_path):
    path = str(tmp_path / "r.csv")
    recs = [make_record("spectrum", 8, 0.25, "two-exc", "DimerI",
                        0.1234567890123456789 - 0.25j, "dense", 1e-12, 0.1, 0)]
    write_records(path, recs)
    raw = open(path, "rb").read()
    assert raw.count(b"\r\n") == 2  # header + one row, CRLF terminated
    rows = read_csv(path)
    assert rows[0] == list(COLUMNS)
    # shortest round-trip float repr
    assert float(rows[1][COLUMNS.index("re_lambda")]) == recs[0].re_lambda
    assert rows[1][COLUMNS.index("decay_rate")] == repr(0.5)


def test_vectors_json_re_im(tmp_path):
    path = str(tmp_path / "v.json")
    write_vectors(path, {"state": np.array([0.5 + 0.25j, -1.0j])})
    doc = json.loads(open(path, encoding="utf-8").read())
    assert doc["vectors"]["state"] == [[0.5, 0.25], [0.0, -1.0]]
    assert doc["schema_version"] == "1"


# ----------------------------------------------------------- runner utils


def test_find_dimer_ii_at_former_stagnation_point():
    # N = 60, kd = 0.1676 pi: a DimerII search where an inexact inner
    # solve (GMRES, relative residual 1.6e-10) stalled
    chain = ChainGeometry.from_kd(60, 0.1676 * np.pi)
    cfg = RunConfig(experiment="scaling")
    pair, cls, spec = runner.find_dimer(chain, "II", cfg)
    assert cls.label == "DimerII"
    dense = np.linalg.eigvals(build_two_hamiltonian(chain))
    assert np.min(np.abs(dense - pair.lam)) <= 1e-8
    assert all(p.residual <= cfg.solver.tol for p in spec.pairs)


def test_find_dimer_past_the_old_direct_cap():
    chain = ChainGeometry.from_kd(160, 0.25 * np.pi)
    cfg = RunConfig(experiment="scaling")
    pair, cls, spec = runner.find_dimer(chain, "II", cfg)
    assert cls.label == "DimerII"
    assert pair.residual <= cfg.solver.tol
    assert spec.meta["dim"] == 160 * 159 // 2


def test_find_dimer_allocates_no_pair_matrix():
    # one D x D complex array at N = 100 alone is 392 MB
    chain = ChainGeometry.from_kd(100, 0.1676 * np.pi)
    cfg = RunConfig(experiment="scaling")
    tracemalloc.start()
    try:
        pair, _, _ = runner.find_dimer(chain, "I", cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert pair is not None
    assert peak < 64e6


def test_find_dimer_escalation_within_max_subspace():
    # N = 40, kd = 0.3 pi: one state near the DimerII line is not the
    # dimer, so the count escalates, here to the max_subspace of 3
    chain = ChainGeometry.from_kd(40, 0.3 * np.pi)
    cfg = parse_config({"experiment": "scaling",
                        "solver": {"count": 1, "max_subspace": 3}})
    pair, cls, spec = runner.find_dimer(chain, "II", cfg)
    assert cls.label == "DimerII" and len(spec) > 1  # the second batch
    assert pair.residual <= cfg.solver.tol


def test_pool_never_larger_than_the_task_list(monkeypatch):
    # a pool starts all of its workers at once; this fake starts none
    asked = []

    class InlinePool:
        def __init__(self, max_workers):
            asked.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr(runner, "ProcessPoolExecutor", InlinePool)
    cfg = RunConfig(experiment="spectrum", jobs=64)
    assert runner._pmap(lambda x, c: (x, c.jobs), [1, 2, 3], cfg) == [
        (1, 64), (2, 64), (3, 64)]
    assert runner._pmap(lambda x, c: x, [5], cfg) == [5]
    assert runner._pmap(lambda x, c: x, [], cfg) == []
    assert asked == [3]


def test_disorder_offsets_contract():
    a = runner.disorder_offsets(11, 0, 30, 0.02)
    b = runner.disorder_offsets(11, 0, 30, 0.02)
    c = runner.disorder_offsets(11, 1, 30, 0.02)
    d = runner.disorder_offsets(12, 0, 30, 0.02)
    assert a.tobytes() == b.tobytes()
    assert a.tobytes() != c.tobytes() and a.tobytes() != d.tobytes()
    assert np.max(np.abs(a)) < 0.02
    assert np.all(runner.disorder_offsets(11, 0, 30, 0.0) == 0.0)


# ----------------------------------------------------------- CLI


def run_cli(args):
    return cli.main(args)


def test_cli_lists_all_experiments():
    parser = cli.build_parser()
    # every experiment is a subcommand with the full flag set
    for name in EXPERIMENTS:
        ns = parser.parse_args([name, "--config", "x.json", "--seed", "5",
                                "--jobs", "2", "--out", "o"])
        assert ns.experiment == name


def test_cli_requires_config(capsys):
    with pytest.raises(SystemExit):
        cli.build_parser().parse_args(["spectrum"])


def test_cli_config_error_returns_2(tmp_path, capsys):
    path = write_cfg(tmp_path, {"experiment": "spectrum", "N": [8],
                                "typo_key": 1})
    assert run_cli(["spectrum", "--config", path]) == 2
    assert "typo_key" in capsys.readouterr().err


def test_cli_experiment_mismatch(tmp_path, capsys):
    path = write_cfg(tmp_path, {"experiment": "spectrum", "N": [8]})
    assert run_cli(["defect", "--config", path]) == 2


def test_cli_spectrum_end_to_end(tmp_path, capsys):
    out = str(tmp_path / "runs")
    path = write_cfg(tmp_path, {"experiment": "spectrum", "N": [8],
                                "kd_over_pi": [0.25], "dump_vectors": True,
                                "out": out})
    assert run_cli(["spectrum", "--config", path]) == 0
    csv_path = capsys.readouterr().out.strip()
    assert csv_path.endswith(".csv") and os.path.dirname(csv_path) == out
    base = csv_path[: -len(".csv")]
    assert os.path.basename(base).startswith("spectrum-")
    rows = read_csv(csv_path)
    assert rows[0] == list(COLUMNS)
    assert len(rows) - 1 == 28  # D = 8*7/2 states
    meta = json.loads(open(base + ".meta.json", encoding="utf-8").read())
    assert meta["experiment"] == "spectrum"
    assert meta["n_records"] == 28
    assert meta["run_hash"] in base
    assert set(meta["environment"]) == {"python", "numpy", "cpu_count"}
    assert meta["environment"]["numpy"] == np.__version__
    # D = 28 splits into 16 mirror-even states (4 pairs are their own
    # mirror image) and 12 mirror-odd ones
    assert meta["summaries"]["N=8,kd_over_pi=0.25"]["mirror_sectors"] == [16, 12]
    vecs = json.loads(open(base + ".vectors.json", encoding="utf-8").read())
    for v in vecs["vectors"].values():
        assert all(len(z) == 2 for z in v)
    svg = open(base + ".svg", encoding="utf-8").read()
    assert svg.startswith("<svg") or "<svg" in svg


# one tiny config per experiment, for the rerun and jobs checks
TINY = {
    "spectrum": {"N": [10], "kd_over_pi": [0.2], "dump_vectors": True,
                 "seed": 4},
    "phase-diagram": {"N": [10, 12], "kd_over_pi": [0.2, 0.25]},
    "scaling": {"N": [10, 12, 14], "kd_over_pi": [0.2, 0.25]},
    "defect": {"N": [16, 20], "kd_over_pi": [0.25, 0.3],
               "defect_sites": [5, 8], "dump_vectors": True},
    "disorder": {"N": [12], "kd_over_pi": [0.18, 0.2],
                 "disorder": {"delta": 0.01, "samples": 2}, "seed": 6},
    "freespace": {"N": [16, 20], "kernel": "transverse"},
    "map-check": {"N": [12], "M": [1, 2], "kd_over_pi": [0.2]},
}


def run_tiny(tmp_path, capsys, exp, name, **extra):
    """Run the TINY config of exp through the CLI.  Returns the CSV path
    and the outputs by extension: the CSV rows without the wall_time
    column, the other files as bytes."""
    path = write_cfg(tmp_path, {"experiment": exp, **TINY[exp],
                                "out": str(tmp_path / name), **extra},
                     name + ".json")
    assert run_cli([exp, "--config", path]) == 0
    csv_path = capsys.readouterr().out.strip()
    base = csv_path[:-len(".csv")]
    wt = COLUMNS.index("wall_time")
    out = {".csv": [r[:wt] + r[wt + 1:] for r in read_csv(csv_path)]}
    for ext in (".grid.csv", ".meta.json", ".vectors.json", ".svg"):
        if os.path.exists(base + ext):
            with open(base + ext, "rb") as f:
                out[ext] = f.read()
    return csv_path, out


@pytest.mark.parametrize("exp", EXPERIMENTS)
def test_cli_rerun_byte_identical_except_walltime(tmp_path, capsys, exp):
    csv_a, first = run_tiny(tmp_path, capsys, exp, "run")
    assert len(first[".csv"]) > 1 and ".svg" in first
    shutil.rmtree(tmp_path / "run")
    csv_b, second = run_tiny(tmp_path, capsys, exp, "run")
    assert csv_a == csv_b  # same run hash -> same path
    assert first == second


@pytest.mark.parametrize("exp", EXPERIMENTS)
def test_jobs_do_not_change_outputs(tmp_path, capsys, exp):
    # results are gathered in task order whatever the number of workers;
    # the metadata differs only in the echoed config and its hash
    _, serial = run_tiny(tmp_path, capsys, exp, "serial", jobs=1)
    _, pooled = run_tiny(tmp_path, capsys, exp, "pooled", jobs=2)
    metas = [json.loads(out.pop(".meta.json")) for out in (serial, pooled)]
    assert [m.pop("config")["jobs"] for m in metas] == [1, 2]
    assert metas[0].pop("run_hash") != metas[1].pop("run_hash")
    assert metas[0] == metas[1]
    assert serial == pooled


def test_cli_solver_override_changes_hash(tmp_path, capsys):
    # solver settings come from the config only (there is no --solver
    # flag), and changing one changes the run hash
    cfg = {"experiment": "spectrum", "N": [6], "out": str(tmp_path / "r")}
    path = write_cfg(tmp_path, cfg)
    with pytest.raises(SystemExit):
        cli.build_parser().parse_args(["spectrum", "--config", path,
                                       "--solver", "dense"])
    assert run_cli(["spectrum", "--config", path]) == 0
    first = capsys.readouterr().out.strip()
    path = write_cfg(tmp_path, {**cfg, "solver": {"tol": 1e-9}})
    assert run_cli(["spectrum", "--config", path]) == 0
    second = capsys.readouterr().out.strip()
    assert first != second


def test_cli_restart_limit_is_one_error_line(tmp_path, capsys):
    path = write_cfg(tmp_path, {"experiment": "scaling", "N": [12],
                                "kd_over_pi": [0.2], "out": str(tmp_path / "r"),
                                "solver": {"max_restarts": 0, "tol": 1e-18}})
    assert run_cli(["scaling", "--config", path]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "restarts" in err


def test_numeric_fields_accept_int_and_float():
    cfg = parse_config({"experiment": "disorder", "gamma": 2, "kd_over_pi": 0.2,
                        "solver": {"tol": 1e-9}, "disorder": {"delta": 0}})
    assert cfg.gamma == 2.0 and isinstance(cfg.gamma, float)
    assert cfg.kd_over_pi == (0.2,) and cfg.solver.tol == 1e-9
    assert cfg.disorder.delta == 0.0 and isinstance(cfg.disorder.delta, float)


def test_cli_defect_end_to_end(tmp_path, capsys):
    out = str(tmp_path / "runs")
    path = write_cfg(tmp_path, {"experiment": "defect", "N": [20],
                                "kd_over_pi": [0.25], "out": out})
    assert run_cli(["defect", "--config", path]) == 0
    csv_path = capsys.readouterr().out.strip()
    grid = read_csv(csv_path[:-4] + ".grid.csv")
    hdr = grid[0]
    assert "re_secular" in hdr and "abs_gap" in hdr
    row = dict(zip(hdr, grid[1]))
    assert int(row["site"]) == 10  # default: central site N // 2
    assert float(row["abs_gap"]) < 1e-8


def test_cli_disorder_end_to_end(tmp_path, capsys):
    out = str(tmp_path / "runs")
    path = write_cfg(tmp_path, {
        "experiment": "disorder", "N": [12], "kd_over_pi": [0.2],
        "disorder": {"delta": 0.01, "samples": 2}, "seed": 6, "out": out})
    assert run_cli(["disorder", "--config", path]) == 0
    csv_path = capsys.readouterr().out.strip()
    rows = read_csv(csv_path)
    si = COLUMNS.index("sample_index")
    samples = {r[si] for r in rows[1:]}
    assert {"-1", "0", "1"} <= samples  # clean row + both samples


def test_cli_mapcheck_end_to_end(tmp_path, capsys):
    out = str(tmp_path / "runs")
    path = write_cfg(tmp_path, {"experiment": "map-check", "M": [1, 2, 5],
                                "Kd_over_pi": [0.0, 1.0],
                                "kd_over_pi": [0.2], "out": out})
    assert run_cli(["map-check", "--config", path]) == 0
    csv_path = capsys.readouterr().out.strip()
    grid = read_csv(csv_path[:-4] + ".grid.csv")
    hdr = grid[0]
    fold = [float(dict(zip(hdr, r))["fold_residual"]) for r in grid[1:]]
    assert max(fold) < 1e-12


def test_cli_freespace_end_to_end(tmp_path, capsys):
    out = str(tmp_path / "runs")
    path = write_cfg(tmp_path, {"experiment": "freespace", "N": [16, 20],
                                "kernel": "transverse",
                                "d_over_lambda0": [0.35], "out": out})
    assert run_cli(["freespace", "--config", path]) == 0
    csv_path = capsys.readouterr().out.strip()
    meta = json.loads(open(csv_path[:-4] + ".meta.json",
                           encoding="utf-8").read())
    changes = [v for k, v in meta.items() if k.startswith("rate_change_d=")]
    assert changes and changes[0]["from_N"] == 16 and changes[0]["to_N"] == 20


def test_cli_phase_diagram_end_to_end(tmp_path, capsys):
    out = str(tmp_path / "runs")
    path = write_cfg(tmp_path, {"experiment": "phase-diagram",
                                "N": [10, 12], "kd_over_pi": [0.2, 0.25],
                                "out": out})
    assert run_cli(["phase-diagram", "--config", path]) == 0
    csv_path = capsys.readouterr().out.strip()
    grid = read_csv(csv_path[:-4] + ".grid.csv")
    assert "rate_dimerII" in grid[0] and "rate_one_exc" in grid[0]
    assert len(grid) - 1 == 4  # 2 sizes x 2 wavenumbers


def test_spectrum_needs_dense_or_fallback(tmp_path, capsys):
    # a spectrum past the dense cap is a config error, not a hang
    path = write_cfg(tmp_path, {"experiment": "spectrum", "N": [111],
                                "out": str(tmp_path / "r")})
    assert run_cli(["spectrum", "--config", path]) == 2
    assert "dense cap" in capsys.readouterr().err
