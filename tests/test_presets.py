import hashlib
import math

import numpy as np
import pytest

from ivstream import cli, presets
from ivstream.schedule import Constant, Polynomial


class TestCellEnumeration:
    def test_fig1_cells(self):
        cells = presets.preset_cells("fig1")
        assert len(cells) == 8
        assert "dx4_dz8_c0.1_phi_id" in cells
        assert "dx8_dz16_c1.0_phi_sq" in cells

    def test_fig2_cells(self):
        cells = presets.preset_cells("fig2")
        assert len(cells) == 8
        assert "dx1_dz1_rho1_sig0.5" in cells
        assert "dx8_dz16_rho4_sig1" in cells

    def test_fig3_single_cell(self):
        assert presets.preset_cells("fig3") == ["default"]

    def test_unknown_preset(self):
        with pytest.raises(ValueError):
            presets.preset_cells("fig9")


class TestBuild:
    def test_fig2_cell_builds_paired_specs(self):
        cells = presets.build_preset("fig2", cell="dx1_dz1_rho1_sig0.5", trials=3, T=100)
        (specs,) = cells.values()
        assert [s.algorithm for s in specs] == ["two_stage_sgd", "direct_sgd", "online_2sls"]
        assert len({s.base_seed for s in specs}) == 1
        assert all(s.test_n == 400 for s in specs)
        assert all(s.T == 100 and s.trials == 3 for s in specs)

    def test_fig3_far_initialisation(self):
        cells = presets.build_preset("fig3", trials=2, T=50)
        (specs,) = cells.values()
        assert len(specs) == 2
        s = specs[0]
        assert s.gamma0[0, 0] == 10.0
        assert s.dgp.gamma_star[0, 0] == -1.0
        assert s.dgp.theta_star[0] == 1.0
        assert isinstance(s.alpha, Polynomial) and isinstance(s.beta, Polynomial)

    def test_fig1_alpha_is_horizon_tuned_constant(self):
        cells = presets.build_preset("fig1", cell="dx4_dz8_c0.1_phi_id", trials=1, T=10_000)
        (specs,) = cells.values()
        spec = specs[0]
        assert isinstance(spec.alpha, Constant)
        # identity-link cell has mu = 1, so alpha = log(T) / T unless clamped
        assert spec.alpha.alpha == pytest.approx(math.log(10_000) / 10_000, rel=1e-6)

    def test_seed_override(self):
        cells = presets.build_preset("fig3", seed=99, trials=2, T=50)
        (specs,) = cells.values()
        assert all(s.base_seed == 99 for s in specs)

    def test_unknown_cell(self):
        with pytest.raises(ValueError, match="cell"):
            presets.build_preset("fig2", cell="nope")


ALL_CELLS = [(name, cell) for name in presets.PRESETS for cell in presets.preset_cells(name)]


@pytest.mark.parametrize("name,cell", ALL_CELLS, ids=[f"{n}-{c}" for n, c in ALL_CELLS])
def test_every_cell_runs(name, cell, tmp_path):
    (specs,) = presets.build_preset(name, cell=cell, trials=2, T=50).values()
    cli.run_specs_to_dir(specs, tmp_path)
    lines = (tmp_path / "series.csv").read_text(encoding="utf-8").splitlines()
    values = np.array([float(line.rsplit(",", 1)[1]) for line in lines[1:]])
    assert len(values) == sum(s.trials * len(s.checkpoints) * (3 if s.test_n else 1) for s in specs)
    assert np.isfinite(values).all()


# The default-T fig1 steps, pinned as measured before the presets became configs.
FIG1_ALPHA = {
    "dx4_dz8_c0.1_phi_id": "0x1.c4e0b398d670dp-16",
    "dx4_dz8_c0.1_phi_sq": "0x1.c64f4eb144423p-17",
    "dx4_dz8_c1.0_phi_id": "0x1.c4e0b398d6713p-16",
    "dx4_dz8_c1.0_phi_sq": "0x1.c70c37f469591p-17",
    "dx8_dz16_c0.1_phi_id": "0x1.c4e0b398d6711p-16",
    "dx8_dz16_c0.1_phi_sq": "0x1.d33c166ae3b42p-17",
    "dx8_dz16_c1.0_phi_id": "0x1.c4e0b398d6719p-16",
    "dx8_dz16_c1.0_phi_sq": "0x1.d6a823bee7a03p-17",
}


@pytest.mark.parametrize("cell", list(FIG1_ALPHA))
def test_fig1_cell_is_its_config(cell):
    # A config that restates the cell, written out by hand, gets the preset's step.
    d_x, d_z, c, _, link = cell.split("_")
    config = {
        "dgp": {"family": "shared_confounder", "d_x": int(d_x[2:]), "d_z": int(d_z[2:]),
                "c": float(c[1:]), "phi": {"id": "identity", "sq": "square"}[link]},
        "algorithm": "two_sample_sgd",
        "schedule": {"alpha": {"kind": "log_horizon"}},
        "T": 485_000, "trials": 50,
    }
    pinned = float.fromhex(FIG1_ALPHA[cell])
    assert presets.build_preset("fig1", cell=cell)[cell][0].alpha == Constant(pinned)
    assert presets.specs_from_config(config)[0].alpha == Constant(pinned)
    (preset,) = presets.build_preset("fig1", cell=cell, T=5000)[cell]
    assert presets.specs_from_config(config, T=5000)[0].alpha == preset.alpha


# Seed-0 SHA-256 of each fig1 cell's series.csv at T=5000 x 10 trials. fig1's
# step is constant, so these do not depend on numpy's SIMD power routine; like
# the alphas above, they do depend on the BLAS kernel chosen for the CPU
# (README, reproducibility).
FIG1_SHA256 = {
    "dx4_dz8_c0.1_phi_id": "27159a84f6755b7da601cdbfde7c150ba474a1596746be32725aad1efea5a97b",
    "dx4_dz8_c0.1_phi_sq": "99978b5ad9ea073f1db164a99b67ca7968032eec8d21668fc2131c5fdb36966a",
    "dx4_dz8_c1.0_phi_id": "ca307e75d05c87d7ce5f37704c4d40c090febe869c6eea12b19f2c41832eed1b",
    "dx4_dz8_c1.0_phi_sq": "342004ed9e5c2323c34532aace7cad0992b1b37c41be8264e3946c2a0e410b29",
    "dx8_dz16_c0.1_phi_id": "038b626920fabcb6246a49ae513a08521638df38c225aa027bf35289b43d87ce",
    "dx8_dz16_c0.1_phi_sq": "629b631afa22d9d3bb2ae4b769df7617e2da112821f096c3fa9f326b270463d8",
    "dx8_dz16_c1.0_phi_id": "88c1d7d154cb21f3c7a34a9408e560e958a0e926001c17e1a252614ea81c7c89",
    "dx8_dz16_c1.0_phi_sq": "7b6181a3b500a3f9f73410974985bc45a8fe3062c5ceaa1a55581bd2200fa0ec",
}


@pytest.mark.parametrize("cell", list(FIG1_SHA256))
def test_fig1_seed0_series_bytes(cell, tmp_path):
    (specs,) = presets.build_preset("fig1", cell=cell, trials=10, T=5000).values()
    cli.run_specs_to_dir(specs, tmp_path)
    assert hashlib.sha256((tmp_path / "series.csv").read_bytes()).hexdigest() == FIG1_SHA256[cell]
