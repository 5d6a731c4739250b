import json

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st

from floodcal.errors import DegenerateEnsemble, DimensionMismatch, MalformedArtifact
from floodcal.grid import Grid, LocationSet, bilinear_interpolate, flatten
from floodcal.reduce import (
    BASIS_ARCHIVE,
    ReducedBasis,
    RunEnsemble,
    build_ensemble,
    fit_basis,
    load_basis,
    project,
    reconstruct,
    reduce_runs,
    save_basis,
)
from floodcal.synthmodel import SynthConfig, run_cheap, run_expensive, shared_locations

from conftest import make_nested_design


def make_ensemble(depths, unit_space):
    depths = np.asarray(depths, dtype=float)
    p, n = depths.shape
    p_exp = max(1, p // 3)
    design = make_nested_design(unit_space, p_exp, p - 2 * p_exp, seed=4)
    assert len(design.points) == p
    locs = LocationSet(np.column_stack([np.arange(n), np.zeros(n)]))
    return RunEnsemble(depths, design, locs)


@pytest.fixture
def random_ensemble(unit_space):
    rng = np.random.default_rng(21)
    return make_ensemble(rng.uniform(0, 3, (21, 50)), unit_space)


class TestBuildEnsemble:
    def test_rows_bitwise_equal_to_per_grid_reads(self, flood_space):
        config = SynthConfig(space=flood_space)
        design = make_nested_design(flood_space, 3, 4, seed=6)
        locations = shared_locations(config)
        exp_grids = [run_expensive(p, config) for p in design.expensive_points]
        cheap_grids = [run_cheap(p, config) for p in design.cheap_points]
        # a cheap run on another coarse geometry between two on the usual one
        rng = np.random.default_rng(6)
        cheap_grids[3] = Grid(1.0, 1.0, 2.0, rng.uniform(0.0, 2.0, (16, 16)))
        ensemble = build_ensemble(exp_grids, cheap_grids, design, locations)
        rows = [flatten(g, locations) for g in exp_grids]
        rows += [bilinear_interpolate(g, locations) for g in cheap_grids]
        assert np.array_equal(ensemble.depths, np.array(rows))
        assert ensemble.depths.flags.c_contiguous


class TestFitBasis:
    def test_identical_rows_degenerate(self, unit_space):
        depths = np.tile(np.linspace(0, 1, 12), (9, 1))
        with pytest.raises(DegenerateEnsemble):
            fit_basis(make_ensemble(depths, unit_space))

    def test_rank_one_single_component(self, unit_space):
        rng = np.random.default_rng(2)
        direction = rng.uniform(0.1, 1.0, 30)
        coef = rng.uniform(0.5, 2.0, 9)
        depths = np.outer(coef, direction)
        basis = fit_basis(make_ensemble(depths, unit_space))
        assert basis.n_components == 1
        rebuilt = reconstruct(basis, project(basis, depths))
        assert np.max(np.abs(rebuilt - depths)) < 1e-10

    def test_eigenvalues_match_dense_eigendecomposition(self, random_ensemble):
        # oracle: eigenvalues of the sample covariance via dense eigensolver
        basis = fit_basis(random_ensemble, target_fraction=0.999999)
        depths = random_ensemble.depths
        cov = np.cov(depths, rowvar=False)
        dense = np.sort(np.linalg.eigvalsh(cov))[::-1]
        ours = basis.eigenvalues
        rel = np.abs(ours - dense[: len(ours)]) / dense[: len(ours)]
        assert rel.max() < 1e-8

    def test_variance_fraction_reached(self, random_ensemble):
        basis = fit_basis(random_ensemble, target_fraction=0.95)
        assert basis.variance_fraction >= 0.95
        # minimality: one fewer component would fall short
        if basis.n_components > 1:
            partial = basis.eigenvalues[:-1].sum() / basis.total_variance
            assert partial < 0.95

    def test_components_orthogonal_with_eigenvalue_norms(self, random_ensemble):
        basis = fit_basis(random_ensemble)
        gram = basis.components.T @ basis.components
        off = gram - np.diag(np.diag(gram))
        assert np.max(np.abs(off)) < 1e-10 * np.max(np.diag(gram))
        rel = np.abs(np.diag(gram) - basis.eigenvalues) / basis.eigenvalues
        assert rel.max() < 1e-10

    def test_sign_convention_deterministic(self, random_ensemble):
        a = fit_basis(random_ensemble)
        b = fit_basis(random_ensemble)
        assert np.array_equal(a.components, b.components)
        for j in range(a.n_components):
            lead = np.argmax(np.abs(a.components[:, j]))
            assert a.components[lead, j] > 0


def svd_oracle(depths, n_keep):
    """Sample-covariance eigenvalues and sign-fixed scaled components by SVD."""
    p = depths.shape[0]
    _, svals, vt = np.linalg.svd(depths - depths.mean(axis=0), full_matrices=False)
    eigenvalues = svals**2 / (p - 1)
    components = vt[:n_keep].T * np.sqrt(eigenvalues[:n_keep])
    lead = np.argmax(np.abs(components), axis=0)
    components *= np.sign(components[lead, np.arange(n_keep)])
    return eigenvalues, components


def graded_depths(p, n, spectrum, seed):
    """Runs whose centered matrix has exactly the given singular values."""
    rng = np.random.default_rng(seed)
    left = rng.standard_normal((p, len(spectrum)))
    left, _ = np.linalg.qr(left - left.mean(axis=0))
    right, _ = np.linalg.qr(rng.standard_normal((n, len(spectrum))))
    return 2.0 + (left * spectrum) @ right.T


# singular values whose 0.999999 retention ends at lambda_J / lambda_1 = 1e-6
GRADED = np.sqrt(np.r_[np.logspace(0, -6, 13), 5e-7, 3e-7])


class TestGramBasisOracle:
    @pytest.mark.parametrize("depths, target", [
        pytest.param(np.random.default_rng(31).uniform(0, 3, (40, 5000)), 0.95, id="p<<N"),
        pytest.param(np.random.default_rng(32).uniform(0, 3, (60, 30)), 0.95, id="p>N"),
        pytest.param(graded_depths(30, 400, GRADED, seed=33), 0.999999, id="graded-1e-6"),
    ])
    def test_matches_svd(self, unit_space, depths, target):
        basis = fit_basis(make_ensemble(depths, unit_space), target_fraction=target)
        n_keep = basis.n_components
        eigenvalues, components = svd_oracle(depths, n_keep)
        rel = np.abs(basis.eigenvalues - eigenvalues[:n_keep]) / eigenvalues[:n_keep]
        assert rel.max() < 1e-8
        assert basis.total_variance == pytest.approx(eigenvalues.sum(), rel=1e-12)
        col_err = np.linalg.norm(basis.components - components, axis=0)
        assert np.all(col_err < 1e-8 * np.linalg.norm(components, axis=0))

    def test_graded_case_retains_the_smallest(self, unit_space):
        depths = graded_depths(30, 400, GRADED, seed=33)
        basis = fit_basis(make_ensemble(depths, unit_space), target_fraction=0.999999)
        assert basis.eigenvalues[-1] / basis.eigenvalues[0] == pytest.approx(1e-6, rel=1e-6)

    def test_no_svd_call(self, random_ensemble, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("fit_basis must not take an SVD")

        monkeypatch.setattr(np.linalg, "svd", refuse)
        monkeypatch.setattr(scipy.linalg, "svd", refuse)
        basis = fit_basis(random_ensemble, target_fraction=0.999999)
        assert basis.n_components > 1


class TestProjectReconstruct:
    def test_mean_row_projects_to_zero(self, random_ensemble):
        basis = fit_basis(random_ensemble)
        scores = project(basis, basis.column_mean)
        assert np.max(np.abs(scores)) < 1e-10

    def test_left_inverse_on_span(self, random_ensemble):
        basis = fit_basis(random_ensemble)
        rng = np.random.default_rng(8)
        coef = rng.standard_normal(basis.n_components)
        row = basis.column_mean + basis.components @ coef
        assert np.max(np.abs(project(basis, row)[0] - coef)) < 1e-10
        rebuilt = reconstruct(basis, project(basis, row))
        assert np.max(np.abs(rebuilt[0] - row)) < 1e-10

    def test_rank_one_scores_proportional(self, unit_space):
        rng = np.random.default_rng(3)
        direction = rng.uniform(0.1, 1.0, 20)
        coef = rng.uniform(0.5, 2.0, 9)
        depths = np.outer(coef, direction)
        basis = fit_basis(make_ensemble(depths, unit_space))
        scores = project(basis, depths)[:, 0]
        centered = coef - coef.mean()
        ratio = scores[np.abs(centered) > 1e-9] / centered[np.abs(centered) > 1e-9]
        assert np.ptp(ratio) < 1e-8 * np.abs(ratio).max()

    def test_zero_scores_give_mean(self, random_ensemble):
        basis = fit_basis(random_ensemble)
        row = reconstruct(basis, np.zeros(basis.n_components))
        assert np.array_equal(row[0], basis.column_mean)

    def test_truncation_bound(self, random_ensemble):
        # oracle: SVD truncation residual vs retained variance fraction
        basis = fit_basis(random_ensemble, target_fraction=0.95)
        depths = random_ensemble.depths
        rebuilt = reconstruct(basis, project(basis, depths))
        centered = depths - basis.column_mean
        frac = np.linalg.norm(depths - rebuilt) ** 2 / np.linalg.norm(centered) ** 2
        assert frac <= 1 - basis.variance_fraction + 1e-6
        assert frac <= 1 - 0.95 + 1e-6

    def test_dimension_mismatch(self, random_ensemble):
        basis = fit_basis(random_ensemble)
        with pytest.raises(DimensionMismatch):
            project(basis, np.zeros(7))
        with pytest.raises(DimensionMismatch):
            reconstruct(basis, np.zeros(basis.n_components + 1))

    def test_score_columns_have_unit_sample_variance(self, random_ensemble):
        # divisor p-1, matching the eigenvalue convention
        basis = fit_basis(random_ensemble)
        runs = reduce_runs(basis, random_ensemble)
        variances = runs.scores.var(axis=0, ddof=1)
        assert np.max(np.abs(variances - 1.0)) < 1e-10
        assert runs.expensive.shape[0] == random_ensemble.design.n_expensive
        assert runs.cheap.shape[0] == random_ensemble.design.n_cheap


class TestBasisArchive:
    def test_roundtrip(self, random_ensemble, tmp_path):
        basis = fit_basis(random_ensemble)
        save_basis(basis, tmp_path / "basis")
        back = load_basis(tmp_path / "basis")
        assert np.array_equal(back.column_mean, basis.column_mean)
        assert np.array_equal(back.components, basis.components)
        assert np.array_equal(back.eigenvalues, basis.eigenvalues)
        assert back.variance_fraction == basis.variance_fraction

    @settings(max_examples=50, deadline=None)
    @given(st.integers(1, 40), st.integers(1, 5), st.integers(0, 2**32 - 1))
    def test_roundtrip_bitwise_property(self, tmp_path_factory, n_loc, n_comp, seed):
        # components are orthogonal with squared norms the (descending) eigenvalues,
        # as load_basis requires: sqrt(eigenvalue)-scaled orthonormal columns
        rng = np.random.default_rng(seed)
        n_comp = min(n_comp, n_loc)
        eigenvalues = np.sort(np.exp(rng.uniform(-300.0, 300.0, n_comp)))[::-1]
        orthonormal = np.linalg.qr(rng.standard_normal((n_loc, n_comp)))[0]
        basis = ReducedBasis(
            column_mean=rng.standard_normal(n_loc) * 10.0 ** rng.integers(-300, 300, n_loc),
            components=orthonormal * np.sqrt(eigenvalues),
            eigenvalues=eigenvalues,
            variance_fraction=rng.random(),
            total_variance=rng.exponential(),
            target_fraction=rng.random(),
        )
        directory = tmp_path_factory.mktemp("basis")
        save_basis(basis, directory)
        back = load_basis(directory)
        for name in ("column_mean", "components", "eigenvalues"):
            before, after = getattr(basis, name), getattr(back, name)
            assert before.dtype == after.dtype and before.shape == after.shape
            assert before.tobytes() == after.tobytes()
        for name in ("variance_fraction", "total_variance", "target_fraction"):
            assert getattr(back, name) == getattr(basis, name)

    def test_archive_holds_exactly_the_tables_files(self, random_ensemble, tmp_path):
        # the stage checks (and any hash of an archive) see only the files the table lists
        save_basis(fit_basis(random_ensemble), tmp_path / "basis")
        assert sorted(f.name for f in (tmp_path / "basis").iterdir()) == sorted(BASIS_ARCHIVE)

    def test_archive_deterministic(self, random_ensemble, tmp_path):
        basis = fit_basis(random_ensemble)
        save_basis(basis, tmp_path / "a")
        save_basis(basis, tmp_path / "b")
        for name in ("column_mean.npy", "components.npy", "eigenvalues.npy", "basis.json"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def corrupt_mean(directory):
    np.save(directory / "column_mean.npy", np.load(directory / "column_mean.npy")[:-1])


def corrupt_eigenvalue_count(directory):
    np.save(directory / "eigenvalues.npy", np.load(directory / "eigenvalues.npy")[:-1])


def corrupt_component_count(directory):
    np.save(directory / "components.npy", np.load(directory / "components.npy")[:, :-1])


def corrupt_manifest_count(directory):
    manifest = json.loads((directory / "basis.json").read_text())
    manifest["n_components"] += 1
    (directory / "basis.json").write_text(json.dumps(manifest))


def corrupt_npy(directory):
    (directory / "components.npy").write_bytes(b"garbage")


def append_to_npy(directory):
    with open(directory / "components.npy", "ab") as fh:
        fh.write(b"garbage")


def drop_manifest_key(directory):
    manifest = json.loads((directory / "basis.json").read_text())
    del manifest["total_variance"]
    (directory / "basis.json").write_text(json.dumps(manifest))


def set_eigenvalue(value):
    def corrupt(directory):
        eigenvalues = np.load(directory / "eigenvalues.npy")
        eigenvalues[-1] = value
        np.save(directory / "eigenvalues.npy", eigenvalues)
    return corrupt


def set_nan(name):
    def corrupt(directory):
        array = np.load(directory / name)
        array.flat[0] = np.nan
        np.save(directory / name, array)
    return corrupt


class TestBasisArchiveValidation:
    @pytest.mark.parametrize("corrupt", [
        corrupt_mean, corrupt_eigenvalue_count, corrupt_component_count, corrupt_manifest_count,
        corrupt_npy, append_to_npy, drop_manifest_key,
        set_eigenvalue(0.0), set_eigenvalue(-1.0), set_eigenvalue(np.nan), set_eigenvalue(np.inf),
        set_nan("components.npy"), set_nan("column_mean.npy"),
    ], ids=["mean-rows", "eigenvalue-count", "component-count", "manifest-count", "npy-garbage",
            "npy-appended", "manifest-key", "eigenvalue-zero", "eigenvalue-negative",
            "eigenvalue-nan", "eigenvalue-inf", "components-nan", "mean-nan"])
    def test_inconsistent_archive_rejected(self, random_ensemble, tmp_path, corrupt):
        basis = fit_basis(random_ensemble)
        assert basis.n_components > 1
        save_basis(basis, tmp_path / "basis")
        corrupt(tmp_path / "basis")
        with pytest.raises(MalformedArtifact, match="basis"):
            load_basis(tmp_path / "basis")
