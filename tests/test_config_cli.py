import importlib
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import raresum as rs
from raresum import estimate
from raresum.cli import EXIT_RUNTIME, main, run_experiment, validate_file
from raresum.config import ConfigParseError, load_config, validate_config
from raresum.estimate import CSV_HEADER

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"

SMALL = """
[model]
family = gaussian-mean
mu = 0.05
sigma = 1.0
d = 1

[region]
two_sided_threshold = 0.28

[run]
n = 20
L = 60
schemes = adaptive, naive
k_mode = manual
k = 15
seed = 5

[chain]
burn_in = 200
thinning = 2

[output]
csv = {csv}
timing = false
"""


def write(tmp_path, text, name="exp.cfg", **fmt):
    path = tmp_path / name
    path.write_text(text.format(**fmt))
    return str(path)


def test_bundled_configs_validate_cleanly():
    for name in ("fig1.cfg", "mean_square_smoke.cfg"):
        cfg = load_config(str(CONFIG_DIR / name))
        diags = validate_config(cfg)
        assert [d for d in diags if d.level == "error"] == []


def test_whole_space_config_warns_not_rare():
    cfg = load_config(str(CONFIG_DIR / "whole_space_naive.cfg"))
    diags = validate_config(cfg)
    assert any("not rare" in d.message for d in diags if d.level == "warning")
    assert not any(d.level == "error" for d in diags)


def test_constraint_count_must_be_below_n(tmp_path):
    text = SMALL.replace("n = 20", "n = 1")
    cfg = load_config(write(tmp_path, text, csv=str(tmp_path / "o.csv")))
    diags = validate_config(cfg)
    assert any("must be < n" in d.message or "at least 2" in d.message
               for d in diags if d.level == "error")


def test_unknown_family_is_error(tmp_path):
    text = SMALL.replace("family = gaussian-mean", "family = mystery")
    cfg = load_config(write(tmp_path, text, csv=str(tmp_path / "o.csv")))
    diags = validate_config(cfg)
    assert any("unknown model family" in d.message for d in diags)


def test_manual_k_out_of_range(tmp_path):
    text = SMALL.replace("k = 15", "k = 20")
    cfg = load_config(write(tmp_path, text, csv=str(tmp_path / "o.csv")))
    diags = validate_config(cfg)
    assert any("manual k" in d.message for d in diags if d.level == "error")


def test_parse_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    small = SMALL.format(csv=tmp_path / "o.csv")
    fractional_sweep = small + "\n[sweep]\nparameter = n\nvalues = 20.7, 30\n"
    # a misspelt key or block would otherwise leave its default in place
    misspelt = [small.replace("seed = 5", "seed = 5\nwieghting = mixture"),
                small.replace("thinning = 2", "thining = 2"),
                small.replace("[output]", "[outptu]")]
    no_family = small.replace("family = gaussian-mean\n", "")
    for text in ["[model\nfamily = gaussian-mean\n", fractional_sweep, no_family, *misspelt]:
        bad.write_text(text)
        assert main(["run", str(bad)]) == 2
        assert main(["validate", str(bad)]) == 2
    assert not (tmp_path / "o.csv").exists()
    err = capsys.readouterr().err
    assert all(name in err for name in ("wieghting", "thining", "outptu"))


@pytest.mark.parametrize("threads", ["0", "-4"])
def test_run_rejects_worker_count_below_one(tmp_path, capsys, threads):
    # --threads 0 used to run serially without a word
    path = write(tmp_path, SMALL, csv=str(tmp_path / "o.csv"))
    with pytest.raises(SystemExit) as exit_info:
        main(["run", path, "--threads", threads])
    assert exit_info.value.code == 2
    assert "--threads" in capsys.readouterr().err
    assert not (tmp_path / "o.csv").exists()


def test_missing_file_exit_code(tmp_path):
    assert main(["validate", str(tmp_path / "nope.cfg")]) == 2


def test_validation_error_exit_code(tmp_path):
    for old, new in [("family = gaussian-mean", "family = mystery"),
                     ("sigma = 1.0", "sigma = inf"),
                     ("sigma = 1.0", "sigma = nan"),
                     ("two_sided_threshold = 0.28", "two_sided_threshold = nan"),
                     ("[output]", "[sweep]\nparameter = d\n\n[output]"),
                     ("k_mode = manual\n", "")]:  # k = 15 needs k_mode = manual
        path = write(tmp_path, SMALL.replace(old, new), csv=str(tmp_path / "o.csv"))
        assert main(["run", path]) == 3
        assert main(["validate", path]) == 3
    assert not (tmp_path / "o.csv").exists()


@pytest.mark.parametrize("family,params", [("exponential-mean", "rate = 1.0"),
                                           ("gaussian-mean-and-square", "mu = 0.0")])
def test_d_above_one_needs_gaussian_mean(tmp_path, capsys, family, params):
    # the other families have d = 1: a config asking for d = 3 is refused,
    # not run at d = 1
    text = SMALL.replace("family = gaussian-mean", f"family = {family}")
    text = text.replace("mu = 0.05", params).replace("sigma = 1.0\n", "")
    text = text.replace("d = 1", "d = 3").replace("schemes = adaptive, naive", "schemes = naive")
    text = text.replace("two_sided_threshold = 0.28", "constraint_1 = [2.0, inf)"
                        + ("\nconstraint_2 = [4.0, 5.0]" if family != "exponential-mean" else ""))
    out = tmp_path / "o.csv"
    path = write(tmp_path, text, csv=str(out))
    assert main(["validate", path]) == 3
    assert main(["run", path]) == 3
    assert capsys.readouterr().err.count("d = 3 requires the gaussian-mean family") == 2
    assert not out.exists()
    assert main(["validate", write(tmp_path, text.replace("d = 3", "d = 1"),
                                   csv=str(out))]) == 0


def test_validate_ok_exit_code(tmp_path, capsys):
    path = write(tmp_path, SMALL, csv=str(tmp_path / "o.csv"))
    assert main(["validate", path]) == 0
    assert "configuration OK" in capsys.readouterr().out


def test_run_writes_csv_with_schema(tmp_path, capsys):
    out = tmp_path / "results.csv"
    path = write(tmp_path, SMALL, csv=str(out))
    assert main(["run", path]) == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == CSV_HEADER
    assert len(lines) == 3  # two schemes, one sweep point
    assert lines[1].startswith("adaptive,20,15,1,1,60,")
    assert lines[2].startswith("naive,20,0,1,1,60,")


def test_run_is_byte_deterministic(tmp_path):
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    path = write(tmp_path, SMALL, csv=str(out1))
    assert run_experiment(path, threads=1) == 0
    assert run_experiment(path, threads=1, out=str(out2)) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_run_reports_weight_overflow_as_error(tmp_path, capsys, monkeypatch):
    # a log-weight past log(DBL_MAX) ~ 709.78 is a runtime error with an
    # ERROR: line, not a traceback, and no CSV is written
    walk = estimate.walk_runs

    def heavy(*args, **kwargs):
        points, head, tail, log_p, aborts = walk(*args, **kwargs)
        return points, head - 800.0, tail, log_p, aborts

    monkeypatch.setattr(estimate, "walk_runs", heavy)
    out = tmp_path / "o.csv"
    assert main(["run", write(tmp_path, SMALL, csv=str(out))]) == EXIT_RUNTIME
    err = capsys.readouterr().err
    assert err.startswith("ERROR: adaptive failed") and "weight overflows, log-weight" in err
    assert not out.exists()


def test_seed_override_changes_output(tmp_path):
    out = tmp_path / "o.csv"
    path = write(tmp_path, SMALL, csv=str(out))
    run_experiment(path)
    first = out.read_text()
    run_experiment(path, seed=999)
    assert out.read_text() != first


def test_whole_space_run_reports_one(tmp_path):
    cfg_path = str(CONFIG_DIR / "whole_space_naive.cfg")
    out = tmp_path / "whole.csv"
    assert run_experiment(cfg_path, out=str(out)) == 0
    rows = out.read_text().strip().split("\n")[1:]
    for row in rows:
        fields = row.split(",")
        p_hat, se = float(fields[7]), float(fields[8])
        assert abs(p_hat - 1.0) <= 5 * se + 1e-9
    naive = [r for r in rows if r.startswith("naive")][0]
    assert float(naive.split(",")[7]) == 1.0


def test_sweep_produces_row_per_point(tmp_path):
    text = SMALL + "\n[sweep]\nparameter = d\nvalues = 1, 2\n"
    out = tmp_path / "sweep.csv"
    path = write(tmp_path, text, csv=str(out))
    assert run_experiment(path) == 0
    lines = out.read_text().strip().split("\n")
    assert len(lines) == 5  # header + 2 sweep points x 2 schemes
    assert lines[1].split(",")[3] == "1"  # d column
    assert lines[3].split(",")[3] == "2"


def test_explicit_constraint_region_round_trip(tmp_path):
    text = SMALL.replace("two_sided_threshold = 0.28",
                         "constraint_1 = (-inf,-0.28) (0.28, inf)")
    out = tmp_path / "o.csv"
    path = write(tmp_path, text, csv=str(out))
    cfg = load_config(path)
    model, region, n, L = cfg.instantiate()
    assert rs.contains(region, [0.5]) and rs.contains(region, [-0.5])
    assert not rs.contains(region, [0.0])


def test_constraints_load_in_suffix_order(tmp_path):
    # constraint_10 is the tenth coordinate, not the second (as sorted keys gave)
    lines = ["constraint_1 = [0.1, 0.2]"] + [f"constraint_{j} = [0.3, 0.4]" for j in range(2, 10)]
    lines.append("constraint_10 = [0.5, 0.6]")
    text = SMALL.replace("two_sided_threshold = 0.28", "\n".join(lines)).replace("d = 1", "d = 10")
    cfg = load_config(write(tmp_path, text, csv=str(tmp_path / "o.csv")))
    assert cfg.region_constraints == ["[0.1, 0.2]"] + ["[0.3, 0.4]"] * 8 + ["[0.5, 0.6]"]
    model, region, n, L = cfg.instantiate()
    assert model.s == 10
    assert rs.contains(region, [0.15] + [0.35] * 8 + [0.55])
    assert not rs.contains(region, [0.15, 0.55] + [0.35] * 8)


@pytest.mark.parametrize("keys", [
    ["constraint_x"],                                               # not an integer
    ["constraint"],
    ["constraint_1", "constraint_01"],                              # constraint 1 twice
    ["constraint_1", "constraint_2", "constraint_3", "constraint_5"],  # no constraint_4
    ["constraint_2"],                                               # no constraint_1
], ids=["non-integer", "bare", "duplicate", "gap", "no-first"])
def test_bad_constraint_keys_are_parse_errors(tmp_path, keys):
    lines = "\n".join(f"{key} = [0.3, 0.4]" for key in keys)
    text = SMALL.replace("two_sided_threshold = 0.28", lines).replace("d = 1", f"d = {len(keys)}")
    path = write(tmp_path, text, csv=str(tmp_path / "o.csv"))
    with pytest.raises(ConfigParseError, match="constraint"):
        load_config(path)
    assert main(["validate", path]) == 2
    assert main(["run", path]) == 2


def test_mixture_weighting_validated_against_family(tmp_path):
    text = SMALL.replace("family = gaussian-mean", "family = exponential-mean")
    text = text.replace("mu = 0.05", "rate = 1.0").replace("sigma = 1.0", "")
    text = text.replace("d = 1", "")
    text = text.replace("seed = 5", "seed = 5\nweighting = mixture")
    text = text.replace("two_sided_threshold = 0.28", "constraint_1 = [2.0, inf)")
    cfg = load_config(write(tmp_path, text, csv=str(tmp_path / "o.csv")))
    diags = validate_config(cfg)
    assert any("mixture weighting" in d.message for d in diags if d.level == "error")


@pytest.mark.parametrize("chain", ["thinning = 2\ntarget_kind = auto", "thinning = 0",
                                   "thinning = 2\nrestart_prob = 0.1",
                                   "thinning = 2\nproposal_scale = 0.1"],
                         ids=["target_kind", "thinning", "restart_prob", "proposal_scale"])
def test_chain_block_error_is_parse_error(tmp_path, capsys, chain):
    text = SMALL.replace("thinning = 2", chain)
    path = write(tmp_path, text, csv=str(tmp_path / "o.csv"))
    assert main(["validate", path]) == 2
    assert main(["run", path]) == 2
    err = capsys.readouterr().err
    assert err.count("ERROR: malformed configuration") == 2
    assert "Traceback" not in err


@pytest.mark.parametrize("old,new,message", [
    # the threshold used to win, silently dropping the constraints
    ("two_sided_threshold = 0.28", "two_sided_threshold = 0.28\nconstraint_1 = [0.5, inf)",
     "not both"),
    # the values used to be ignored, and one unswept row written
    ("[output]", "[sweep]\nvalues = 1, 2\n\n[output]", "needs a parameter"),
], ids=["region-both-forms", "sweep-values-only"])
def test_contradictory_blocks_are_parse_errors(tmp_path, capsys, old, new, message):
    out = tmp_path / "o.csv"
    path = write(tmp_path, SMALL.replace(old, new), csv=str(out))
    assert main(["validate", path]) == 2
    assert main(["run", path]) == 2
    assert capsys.readouterr().err.count(message) == 2
    assert not out.exists()


def test_library_matches_cli_rows(tmp_path):
    out = tmp_path / "o.csv"
    path = write(tmp_path, SMALL, csv=str(out))
    assert main(["run", path]) == 0
    cfg = load_config(path)
    model, region, n, L = cfg.instantiate()
    reports = rs.compare_schemes(model, region, n, L, schemes=cfg.schemes,
                                 path_config=cfg.path_config(),
                                 chain_config=cfg.chain, seed=cfg.seed,
                                 weighting=cfg.weighting)
    rows = [r.csv_row(include_timing=False) for r in reports]
    assert rows == out.read_text().strip().split("\n")[1:]


def test_benchmark_configs_validate_cleanly(tmp_path, monkeypatch):
    # every config the benchmark writes, formatted as its write_configs does,
    # parses and validates; the benchmark's files are only read
    monkeypatch.syspath_prepend(str(CONFIG_DIR.parent / "raresum_bench"))
    bench = importlib.import_module("run")
    templates = set()
    path = tmp_path / "bench.cfg"
    for workload in bench.WORKLOADS.values():
        for call in workload.calls:
            templates.add(call.template)
            path.write_text(call.template.format(d=workload.d, L=call.L, scheme=call.scheme,
                                                 seed=workload.quality_seed,
                                                 csv=(tmp_path / "o.csv").as_posix()))
            diags = validate_config(load_config(str(path)))
            assert not [d for d in diags if d.level == "error"]
    assert templates == {bench.FIG1, bench.MEAN_SQUARE}


@pytest.mark.parametrize("key", ["n = 20", "L = 60"])
def test_missing_run_size_is_parse_error(tmp_path, capsys, key):
    path = write(tmp_path, SMALL.replace(key + "\n", ""), csv=str(tmp_path / "o.csv"))
    assert main(["validate", path]) == 2
    assert "ERROR: malformed configuration" in capsys.readouterr().err


def test_import_loads_no_scipy():
    # scipy is a test and benchmark dependency only; importing it would
    # more than double the start-up time of every `raresum` command.  The
    # process pool is imported only when --threads asks for workers.
    src = str(Path(rs.__file__).resolve().parents[1])
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = ("import sys, raresum, raresum.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy' "
            "or m in ('concurrent.futures.process', 'multiprocessing')))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=60, check=True)
    assert out.stdout.strip() == "[]"
