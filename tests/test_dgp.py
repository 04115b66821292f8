import ctypes
import dataclasses
import hashlib
import math
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from conftest import make_rng
from ivstream import _native, dgp
from ivstream._validation import check_symmetric_pd


class TestNoiseFreeLimit:
    def test_sample_one_is_deterministic_given_z(self, rng):
        cfg = dgp.shared_confounder_config(4, 8, c=0.0, phi="identity")
        z, x, y = dgp.sample_one_block(rng, cfg, 100)
        np.testing.assert_array_equal(x, z @ cfg.gamma_star)
        np.testing.assert_array_equal(y, x @ cfg.theta_star)

    def test_sample_two_degenerate_conditional_law(self, rng):
        cfg = dgp.shared_confounder_config(4, 8, c=0.0, phi="square")
        z, x, x_prime, _ = dgp.sample_two_block(rng, cfg, 100)
        np.testing.assert_array_equal(x, x_prime)
        np.testing.assert_array_equal(x, (z @ cfg.gamma_star) ** 2)


class TestInstrumentDraw:
    @pytest.mark.parametrize("d_x,d_z", [(1, 1), (4, 8), (8, 16)])
    def test_identity_covariance_skips_the_factor_bit_for_bit(self, d_x, d_z):
        # With z_cov = I the block is the raw normal draw, which is what the
        # product with the identity factor gave, bit for bit.
        cfg = dgp.shared_confounder_config(d_x, d_z, c=0.1, phi="identity", z_cov=np.eye(d_z))
        z, _, _ = dgp.sample_one_block(make_rng(4), cfg, 5000)
        raw = make_rng(4).standard_normal((5000, d_z))
        np.testing.assert_array_equal(z, raw)
        np.testing.assert_array_equal(z, raw @ np.linalg.cholesky(cfg.z_cov).T)

    def test_other_covariance_applies_the_factor(self):
        z_cov = np.array([[2.0, 0.5], [0.5, 1.0]])
        cfg = dgp.endogenous_linear_config(1, 2, rho=1.0, sigma_eps=0.5, z_cov=z_cov)
        z, _, _ = dgp.sample_one_block(make_rng(4), cfg, 5000)
        np.testing.assert_array_equal(z, make_rng(4).standard_normal((5000, 2)) @ np.linalg.cholesky(z_cov).T)


class TestMoments:
    def test_outcome_noise_variance(self):
        # Var(Y - X) = Var(nu) = rho^2 sigma_eps^2 + 0.25 = 0.25 for rho = 0.
        cfg = dgp.endogenous_linear_config(1, 1, rho=0.0, sigma_eps=0.5,
                                           theta_star=np.array([1.0]), gamma_star=np.array([[1.0]]))
        z, x, y = dgp.sample_one_block(make_rng(7), cfg, 1_000_000)
        var = float(np.var(y - x[:, 0]))
        assert abs(var - 0.25) <= 0.02 * 0.25

    def test_two_sample_cross_moment(self):
        # E[X' X^T] = gamma^T Sigma_Z gamma + c^2 * ones ones^T entrywise within 2%
        # (confounders h, h' are independent with mean one).
        cfg = dgp.shared_confounder_config(4, 8, c=1.0, phi="identity")
        z, x, xp, y = dgp.sample_two_block(make_rng(11), cfg, 1_000_000)
        emp = xp.T @ x / len(y)
        expected = cfg.gamma_star.T @ cfg.z_cov @ cfg.gamma_star + np.ones((4, 4))
        np.testing.assert_allclose(emp, expected, rtol=0.02, atol=0.01)

    def test_conditional_independence_given_z(self):
        # Cov(X - E[X|Z], X' - E[X'|Z]) -> 0 within 3 Monte-Carlo standard errors.
        cfg = dgp.shared_confounder_config(2, 4, c=1.0, phi="identity")
        z, x, xp, _ = dgp.sample_two_block(make_rng(3), cfg, 100_000)
        m = dgp.conditional_mean_x(cfg, z)
        r, rp = x - m, xp - m
        for i in range(2):
            for j in range(2):
                prod = r[:, i] * rp[:, j]
                se = prod.std() / np.sqrt(len(prod))
                assert abs(prod.mean()) <= 3.0 * se

    @pytest.mark.parametrize("phi", ["identity", "square"])
    def test_conditional_mean_shift(self, phi):
        # E[X | Z] = phi(gamma^T Z) + c * ones: the residual mean is c per coordinate.
        c = 0.7
        cfg = dgp.shared_confounder_config(3, 6, c=c, phi=phi)
        z, x, _ = dgp.sample_one_block(make_rng(5), cfg, 200_000)
        base = z @ cfg.gamma_star
        if phi == "square":
            base = base**2
        resid = x - base
        se = resid.std(axis=0) / np.sqrt(len(resid))
        np.testing.assert_array_less(np.abs(resid.mean(axis=0) - c), 3.0 * se + 1e-12)


class TestGridConfigs:
    @pytest.mark.parametrize("dims", [(1, 1), (8, 16)])
    @pytest.mark.parametrize("rho", [1.0, 4.0])
    @pytest.mark.parametrize("sigma_eps", [0.5, 1.0])
    def test_endogenous_linear_grid_accepted(self, dims, rho, sigma_eps):
        cfg = dgp.endogenous_linear_config(dims[0], dims[1], rho=rho, sigma_eps=sigma_eps)
        assert cfg.d_x == dims[0] and cfg.d_z == dims[1]

    @pytest.mark.parametrize("dims", [(4, 8), (8, 16)])
    @pytest.mark.parametrize("c", [0.1, 1.0])
    @pytest.mark.parametrize("phi", ["identity", "square"])
    def test_shared_confounder_grid_accepted(self, dims, c, phi):
        cfg = dgp.shared_confounder_config(dims[0], dims[1], c=c, phi=phi)
        assert cfg.is_linear == (phi == "identity")

    def test_default_gamma_is_identity_block(self):
        cfg = dgp.endogenous_linear_config(2, 4, rho=1.0, sigma_eps=0.5)
        expected = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0], [0.0, 0.0]])
        np.testing.assert_array_equal(cfg.gamma_star, expected)


class TestTestSet:
    def test_sizes(self, rng):
        cfg = dgp.endogenous_linear_config(1, 1, rho=1.0, sigma_eps=0.5)
        assert len(dgp.test_set(rng, cfg, 400)) == 400
        assert len(dgp.test_set(rng, cfg, 1)) == 1
        with pytest.raises(ValueError):
            dgp.test_set(rng, cfg, 0)

    def test_same_seed_bitwise_identical(self):
        cfg = dgp.endogenous_linear_config(2, 3, rho=1.0, sigma_eps=0.5)
        a = dgp.test_set(make_rng(42), cfg, 50)
        b = dgp.test_set(make_rng(42), cfg, 50)
        for sa, sb in zip(a, b):
            np.testing.assert_array_equal(sa.z, sb.z)
            np.testing.assert_array_equal(sa.x, sb.x)
            assert sa.y == sb.y


class TestDeterminism:
    def test_identical_seeds_identical_streams(self):
        cfg = dgp.shared_confounder_config(4, 8, c=1.0, phi="square")
        a = dgp.sample_two_block(make_rng(9), cfg, 1000)
        b = dgp.sample_two_block(make_rng(9), cfg, 1000)
        for xa, xb in zip(a, b):
            np.testing.assert_array_equal(xa, xb)


# At d_x = d_z = 1 every product is a single multiply, so these bytes depend
# on no BLAS reduction order or SIMD level.
PINNED_CASES = {
    "endogenous": lambda: dgp.endogenous_linear_config(1, 1, rho=4.0, sigma_eps=0.5),
    "endogenous_z_cov": lambda: dgp.endogenous_linear_config(1, 1, rho=4.0, sigma_eps=0.5, z_cov=[[2.5]]),
    "shared_identity": lambda: dgp.shared_confounder_config(1, 1, c=0.7, phi="identity"),
    "shared_square": lambda: dgp.shared_confounder_config(1, 1, c=0.7, phi="square"),
    "shared_square_z_cov": lambda: dgp.shared_confounder_config(1, 1, c=0.7, phi="square", z_cov=[[2.5]]),
}

#: SHA-256 of the n = 1 and then the n = 5000 draw from PCG64(2024).
PINNED_SHA256 = {
    ("endogenous", "sample_one_block"): "adc11ec48bcb2f48f7af42232445f8ad005bf9c2c225e2b4fa1d3aa16333d55d",
    ("endogenous", "sample_two_block"): "b39802a91a9fcaa3264687e61b7271d852c250acbf4730fa9cd71b673a7969c1",
    ("endogenous_z_cov", "sample_one_block"): "d5a5775168ad20db1496a53386e6968bce67f2d3bca7c8890191c34ae923addc",
    ("endogenous_z_cov", "sample_two_block"): "481d7366d87ffffb14fb989da9b631d27e77455155cd8f959cbdf0f2a0e7f2cc",
    ("shared_identity", "sample_one_block"): "8762e97312eae772b043a8adefd5c929bb3f6ee0a1fa8a34526191c1be0052e4",
    ("shared_identity", "sample_two_block"): "89169e0da9f1a458bdcc2256dad73ab69622aa429e9ba1bd880acfaccdae088b",
    ("shared_square", "sample_one_block"): "11e2991da2e914eae607b838ea0211aa219393b11d2c5f5a458d9d195cb6f81c",
    ("shared_square", "sample_two_block"): "6a3d9aa3dd808c47419f196647f8e455e2588df543ac2b344f036898f844a45b",
    ("shared_square_z_cov", "sample_one_block"): "1a5f28585d70e31fddf52da3e499ed6c5c9849c07435dd017634b14cdf434edf",
    ("shared_square_z_cov", "sample_two_block"): "80b8c06d4cbd3a313c8f8740077f4ddb92f0a1ef41c076a6b9332d8d2d60e77a",
}


class TestPinnedStreams:
    @pytest.mark.parametrize("case,sampler", sorted(PINNED_SHA256))
    def test_sampler_bytes_are_pinned(self, case, sampler):
        h = hashlib.sha256()
        for n in (1, 5000):
            for arr in getattr(dgp, sampler)(make_rng(2024), PINNED_CASES[case](), n):
                h.update(arr.tobytes())
        assert h.hexdigest() == PINNED_SHA256[(case, sampler)]


#: Families of every link, with the identity z_cov and another one.
OUT_CASES = {
    "endogenous": lambda d_x, d_z, z_cov: dgp.endogenous_linear_config(d_x, d_z, rho=1.5, sigma_eps=0.5, z_cov=z_cov),
    "shared_identity": lambda d_x, d_z, z_cov: dgp.shared_confounder_config(d_x, d_z, c=0.7, z_cov=z_cov),
    "shared_square": lambda d_x, d_z, z_cov: dgp.shared_confounder_config(d_x, d_z, c=0.7, phi="square", z_cov=z_cov),
}


class TestDrawInto:
    """A draw into ``out`` is the draw that returns new arrays, bit for bit, wherever the arrays sit."""

    @pytest.mark.parametrize("case", sorted(OUT_CASES))
    @pytest.mark.parametrize("z_cov", [False, True], ids=["identity_z_cov", "z_cov"])
    @pytest.mark.parametrize("d_x,d_z", [(1, 1), (3, 5), (8, 16)])
    @pytest.mark.parametrize("sampler", ["sample_one_block", "sample_two_block"])
    def test_equals_a_draw_of_new_arrays(self, case, z_cov, d_x, d_z, sampler):
        # The arrays are the first rows of the slots of a larger buffer, as the
        # harness's short last block is, each 0 to 3 floats after the last, so
        # the in-place and out= arithmetic and BLAS calls run at other
        # alignments than on new arrays. The buffer holds NaNs: the draw must
        # overwrite them in the rows it fills and leave them in the rest. The
        # generator ends where the plain draw leaves it, which is all that the
        # harness's stream digest reads of a draw.
        cfg = OUT_CASES[case](d_x, d_z, np.eye(d_z) + 0.3 if z_cov else None)
        sample = getattr(dgp, sampler)
        for n in (1, 7, 300):
            want_rng = make_rng(n)
            want = sample(want_rng, cfg, n)
            for skip in range(4):
                shapes = [(n + 5, *a.shape[1:]) for a in want]
                sizes = [math.prod(shape) for shape in shapes]
                buffer = np.full(4 * skip + sum(sizes), np.nan)
                starts = np.cumsum([skip, *(size + skip for size in sizes)])[:-1]
                slots = [buffer[a:a + size].reshape(shape) for a, size, shape in zip(starts, sizes, shapes)]
                out = [slot[:n] for slot in slots]
                rng = make_rng(n)
                got = sample(rng, cfg, n, out=out)
                assert len(got) == len(out) and all(a is b for a, b in zip(got, out))
                assert [a.tobytes() for a in got] == [a.tobytes() for a in want]
                assert np.isnan(buffer).sum() == buffer.size - sum(a.size for a in out)
                assert rng.bit_generator.state == want_rng.bit_generator.state

    @pytest.mark.parametrize("sampler", ["sample_one_block", "sample_two_block"])
    def test_bad_out_is_refused_before_a_draw(self, sampler):
        cfg = dgp.shared_confounder_config(2, 3, c=0.5)
        sample, n = getattr(dgp, sampler), 10
        good = [np.empty(a.shape) for a in sample(make_rng(0), cfg, n)]
        bad = {
            "shape": [np.empty((n + 1, *good[0].shape[1:])), *good[1:]],
            "rows": [*good[:-1], np.empty((n, 1))],
            "non_contiguous": [good[0], np.empty((n, 2 * good[1].shape[1]))[:, ::2], *good[2:]],
            "fortran_order": [np.asfortranarray(good[0]), *good[1:]],
            "float32": [np.zeros(good[0].shape, np.float32), *good[1:]],
            "read_only": [*good[:-1], np.lib.stride_tricks.as_strided(good[-1], writeable=False)],
            "list": [good[0].tolist(), *good[1:]],
            "count": good[:-1],
        }
        for name, out in bad.items():
            rng = make_rng(0)
            with pytest.raises(ValueError, match="out"):
                sample(rng, cfg, n, out=out)
            assert rng.bit_generator.state == make_rng(0).bit_generator.state, name


def _sampler(rng, n):
    """``n`` normals from the compiled sampler, in one call."""
    return dgp._normals(rng)(np.empty(n))


#: The most words one refill of the AVX-512 sampler's buffer draws.
ZIG_WORDS = int(re.search(r"ZIG_WORDS = (\d+)", _native.SOURCE.read_text()).group(1))


def _ziggurat_tables():
    """ki (integers), wi and fi (doubles): the tables the sampler's source holds."""
    source = (Path(dgp.__file__).parent / "_windows.c").read_text()
    words = [np.array([int(w, 16) for w in re.findall(r"0x[0-9a-f]{16}", body)], dtype=np.uint64)
             for body in (re.search(rf"zig_{t} = {{{{(.*?)}}}};", source, re.S).group(1) for t in ("ki", "wi", "fi"))]
    assert all(len(w) == 256 for w in words)
    return words[0], words[1].view(np.float64), words[2].view(np.float64)


def _ziggurat_paths(words: np.ndarray, x: np.ndarray) -> tuple[int, int, int]:
    """Walk numpy's ziggurat over the raw PCG64 ``words`` that drew ``x``:
    ``(words consumed, draws that took the idx-0 tail, wedge tests)``.

    Every draw whose first word passes the layer test is that word's normal;
    the walk replays only the others, each with the same operations as the
    sampler, and checks the value each one returns.
    """
    ki, wi, fi = _ziggurat_tables()
    r_tail, inv_r = float.fromhex("0x1.d3bb48209ad33p+1"), float.fromhex("0x1.183aa6c20e8c1p-2")
    idx, rabs = (words & 0xFF).astype(np.intp), (words >> 9) & 0x000FFFFFFFFFFFFF
    slow = np.flatnonzero(rabs >= ki[idx])

    def uniform(j):
        return float(int(words[j]) >> 11) * (1.0 / 9007199254740992.0)

    def signed(value, bit):
        return -value if bit & 1 else value

    i = j = tails = wedges = 0
    while True:
        k = np.searchsorted(slow, j)
        if k == len(slow) or i + (slow[k] - j) >= len(x):
            return j + len(x) - i, tails, wedges
        i, j = i + slow[k] - j, slow[k]  # draw i starts at word j and misses its layer
        if idx[j] == 0:
            tails += 1
            start = j
            while True:
                xx = -inv_r * math.log1p(-uniform(j + 1))
                yy = -math.log1p(-uniform(j + 2))
                j += 2
                if yy + yy > xx * xx:
                    break
            assert x[i] == signed(r_tail + xx, int(rabs[start]) >> 8)
            i, j = i + 1, j + 1
        else:
            wedges += 1
            v = signed(float(rabs[j]) * wi[idx[j]], int(words[j]) >> 8)
            accept = (fi[idx[j] - 1] - fi[idx[j]]) * uniform(j + 1) + fi[idx[j]] < math.exp(-0.5 * v * v)
            if accept:
                assert x[i] == v
                i += 1
            j += 2


class TestNormalSampler:
    """The compiled sampler is numpy's ``Generator.standard_normal`` on PCG64, bit for bit."""

    @pytest.mark.parametrize("seed", [0, 1, 2024, 2**64 - 1])
    @pytest.mark.parametrize("n", [0, 1, 2, 7, 8, 9, 15, 16, 17, 255, 256, ZIG_WORDS - 1, ZIG_WORDS,
                                   ZIG_WORDS + 1, 4097, 1_000_000])
    def test_equals_standard_normal_bit_for_bit(self, seed, n):
        # Interleaved with numpy's own draws, after a 32-bit draw that leaves
        # half a word buffered in the state (has_uint32, uinteger); the
        # generators then agree on every field of the state, the buffer too.
        # The sizes take the AVX-512 path's 8-word fast path and its word
        # buffer to their edges; n = 0 leaves the state as it was.
        ref, rng = make_rng(seed), make_rng(seed)
        for g in (ref, rng):
            g.integers(2**32, dtype=np.uint32)
        expected = [ref.standard_normal(n) for _ in range(3)]
        got = [rng.standard_normal(n), _sampler(rng, n), rng.standard_normal(n)]
        for a, b in zip(expected, got):
            assert a.tobytes() == b.tobytes()
        assert rng.bit_generator.state == ref.bit_generator.state
        assert rng.bit_generator.state["has_uint32"] == 1
        assert rng.integers(2**32, dtype=np.uint32) == ref.integers(2**32, dtype=np.uint32)

    def test_build_without_avx512_equals_standard_normal(self, no_avx512_build):
        # The sampler without its AVX-512 path, one word at a time, whatever
        # this CPU has; the default build takes that path where it can.
        fill = no_avx512_build.standard_normals
        fill.argtypes, fill.restype = (ctypes.c_void_p, ctypes.c_int64, ctypes.c_void_p), None
        for seed in (0, 1, 2**64 - 1):
            for n in (0, 1, 7, 8, 9, 17, ZIG_WORDS + 1, 100_000):
                ref, bit_generator = np.random.PCG64(seed), np.random.PCG64(seed)
                out = np.empty(n)
                fill(bit_generator.ctypes.state_address, n, out.ctypes.data)
                assert out.tobytes() == np.random.Generator(ref).standard_normal(n).tobytes()
                assert bit_generator.state == ref.state

    @pytest.mark.parametrize("seed", [0, 1, 2024])
    def test_a_run_takes_the_tail_and_the_wedge(self, seed):
        # A million normals miss the ziggurat's layers about 7000 times; the
        # words a clone of the generator reads show which slow path each took.
        rng = make_rng(seed)
        words = np.random.Generator(np.random.PCG64(seed)).bit_generator.random_raw(1_050_000)
        x = _sampler(rng, 1_000_000)
        consumed, tails, wedges = _ziggurat_paths(words, x)
        clone = np.random.PCG64(seed)
        clone.random_raw(consumed)
        assert clone.state == rng.bit_generator.state
        assert tails > 100 and wedges > 5000, (tails, wedges)

    @pytest.mark.parametrize("bit_generator", [np.random.MT19937, np.random.PCG64DXSM, np.random.Philox])
    @pytest.mark.parametrize("sampler", ["sample_one_block", "sample_two_block"])
    def test_only_pcg64_is_sampled(self, bit_generator, sampler):
        cfg = dgp.shared_confounder_config(2, 3, c=0.5)
        rng = np.random.Generator(bit_generator(5))
        with pytest.raises(ValueError, match=f"PCG64 generator, got {bit_generator.__name__}$"):
            getattr(dgp, sampler)(rng, cfg, 10)
        assert rng.random() == np.random.Generator(bit_generator(5)).random()  # nothing was drawn

    @pytest.mark.parametrize("phi", ["identity", "square"])
    def test_memory_of_a_draw_does_not_grow(self, phi):
        # fig1's dx8_dz16 oracle draw of 50 000 rows: Z, X, X' and Y (13.2 MB)
        # beside the draw's scratch, which holds the link (3.2 MB). 16 801 192
        # bytes were traced at the peak before the compiled sampler, which
        # fills each normal block in place.
        cfg = dgp.shared_confounder_config(8, 16, c=1.0, phi=phi)
        dgp.sample_two_block(make_rng(1), cfg, 10)  # the sampler is built and loaded
        tracemalloc.start()
        try:
            dgp.sample_two_block(make_rng(1), cfg, 50_000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 16_801_192


class TestValidation:
    def test_dz_must_dominate_dx(self):
        with pytest.raises(ValueError, match="d_z"):
            dgp.endogenous_linear_config(4, 2, rho=1.0, sigma_eps=0.5)

    @pytest.mark.parametrize("field,value", [("d_x", 2.7), ("d_x", 2.0), ("d_x", True), ("d_z", 3.5),
                                             ("d_z", np.float64(3.0)), ("d_z", "3")])
    def test_dimensions_must_be_integers(self, field, value):
        # DgpConfig(2.7, 3, ...) used to build a config with d_x = 2.
        cfg = dgp.endogenous_linear_config(2, 3, rho=1.0, sigma_eps=0.5)
        with pytest.raises(ValueError, match=f"^{field} must be an integer"):
            dataclasses.replace(cfg, **{field: value})

    def test_identification_requires_pd_first_stage(self):
        with pytest.raises(ValueError):
            dgp.endogenous_linear_config(2, 2, rho=1.0, sigma_eps=0.5,
                                         gamma_star=np.zeros((2, 2)))

    def test_negative_c_rejected(self):
        with pytest.raises(ValueError, match="c"):
            dgp.shared_confounder_config(2, 2, c=-0.5)

    def test_nonpositive_sigma_eps_rejected(self):
        with pytest.raises(ValueError, match="sigma_eps"):
            dgp.endogenous_linear_config(1, 1, rho=1.0, sigma_eps=0.0)

    def test_non_pd_z_cov_rejected(self):
        with pytest.raises(ValueError, match="z_cov"):
            dgp.endogenous_linear_config(1, 2, rho=1.0, sigma_eps=0.5,
                                         z_cov=np.array([[1.0, 2.0], [2.0, 1.0]]))

    @pytest.mark.parametrize("z_cov", [None, "identity"])
    def test_only_a_given_z_cov_is_checked(self, z_cov, monkeypatch):
        # The default identity needs no eigvalsh; an explicit one is checked as any other.
        checked = []

        def recorded(a, name="matrix"):
            checked.append(name)
            return check_symmetric_pd(a, name)

        monkeypatch.setattr(dgp, "check_symmetric_pd", recorded)
        cfg = dgp.endogenous_linear_config(2, 3, rho=1.0, sigma_eps=0.5,
                                           z_cov=None if z_cov is None else np.eye(3))
        given = [] if z_cov is None else ["z_cov"]
        assert checked == given + ["gamma_star^T z_cov gamma_star"]
        assert cfg._z_chol is None
        assert cfg.z_cov.dtype == np.float64 and cfg.z_cov.tobytes() == np.eye(3).tobytes()

    @pytest.mark.parametrize("z_cov,message", [
        (np.array([[1.0, 0.5], [0.0, 1.0]]), "z_cov must be symmetric"),
        (np.eye(3), r"z_cov must have shape \(2, 2\)"),
        (np.eye(2)[:1], "z_cov must be square"),
        (np.array([[1.0, np.nan], [np.nan, 1.0]]), "z_cov has non-finite entries"),
    ])
    def test_given_z_cov_is_checked(self, z_cov, message):
        # test_non_pd_z_cov_rejected covers a z_cov that is not positive definite.
        with pytest.raises(ValueError, match=f"^{message}"):
            dgp.endogenous_linear_config(1, 2, rho=1.0, sigma_eps=0.5, z_cov=z_cov)

    def test_nonfinite_theta_rejected(self):
        with pytest.raises(ValueError):
            dgp.endogenous_linear_config(1, 1, rho=1.0, sigma_eps=0.5,
                                         theta_star=np.array([np.inf]))

    def test_unknown_phi_rejected(self):
        with pytest.raises(ValueError, match="phi"):
            dgp.shared_confounder_config(1, 1, c=0.1, phi="cube")
