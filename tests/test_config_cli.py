import math
from pathlib import Path

import numpy as np
import pytest

import raresum as rs
from raresum.cli import main, run_experiment, validate_file
from raresum.config import load_config, validate_config
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


def test_parse_error_exit_code(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("[model\nfamily = gaussian-mean\n")
    assert main(["run", str(bad)]) == 2
    assert main(["validate", str(bad)]) == 2


def test_missing_file_exit_code(tmp_path):
    assert main(["validate", str(tmp_path / "nope.cfg")]) == 2


def test_validation_error_exit_code(tmp_path):
    text = SMALL.replace("family = gaussian-mean", "family = mystery")
    path = write(tmp_path, text, csv=str(tmp_path / "o.csv"))
    assert main(["run", path]) == 3
    assert main(["validate", path]) == 3


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


def test_mixture_weighting_validated_against_family(tmp_path):
    text = SMALL.replace("family = gaussian-mean", "family = exponential-mean")
    text = text.replace("mu = 0.05", "rate = 1.0").replace("sigma = 1.0", "")
    text = text.replace("d = 1", "")
    text = text.replace("seed = 5", "seed = 5\nweighting = mixture")
    text = text.replace("two_sided_threshold = 0.28", "constraint_1 = [2.0, inf)")
    cfg = load_config(write(tmp_path, text, csv=str(tmp_path / "o.csv")))
    diags = validate_config(cfg)
    assert any("mixture weighting" in d.message for d in diags if d.level == "error")


@pytest.mark.parametrize("chain", ["thinning = 2\ntarget_kind = bogus", "thinning = 0"],
                         ids=["target_kind", "thinning"])
def test_chain_block_error_is_parse_error(tmp_path, capsys, chain):
    text = SMALL.replace("thinning = 2", chain)
    path = write(tmp_path, text, csv=str(tmp_path / "o.csv"))
    assert main(["validate", path]) == 2
    assert main(["run", path]) == 2
    err = capsys.readouterr().err
    assert err.count("ERROR: malformed configuration") == 2
    assert "Traceback" not in err


def test_proposal_scale_length_is_validated(tmp_path, capsys):
    text = SMALL.replace("d = 1", "d = 2")
    text = text.replace("thinning = 2", "thinning = 2\nproposal_scale = 0.1, 0.1, 0.1")
    out = tmp_path / "o.csv"
    path = write(tmp_path, text, csv=str(out))
    assert main(["validate", path]) == 3
    assert main(["run", path]) == 3
    assert capsys.readouterr().err.count("proposal_scale size must be 1 or s=2") == 2
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


@pytest.mark.parametrize("key", ["n = 20", "L = 60"])
def test_missing_run_size_is_parse_error(tmp_path, capsys, key):
    path = write(tmp_path, SMALL.replace(key + "\n", ""), csv=str(tmp_path / "o.csv"))
    assert main(["validate", path]) == 2
    assert "ERROR: malformed configuration" in capsys.readouterr().err
