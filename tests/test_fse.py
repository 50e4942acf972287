"""Frequency Selective Extrapolation: reference invariants and kernel parity."""

from __future__ import annotations

import numpy as np
import pytest

from repro.fse import reference as ref
from repro.fse.images import (NUM_TEST_IMAGES, make_image, make_mask,
                              test_case as fse_case)
from repro.fse.kernel import build_fse_kernel, build_fse_module
from repro.fse.params import FseParams
from tests.helpers import run_kir

PARAMS = FseParams(block=8, iterations=4)


class TestParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            FseParams(block=6)
        with pytest.raises(ValueError):
            FseParams(iterations=0)
        with pytest.raises(ValueError):
            FseParams(rho=1.5)
        with pytest.raises(ValueError):
            FseParams(gamma=0.0)

    def test_weight_table_is_decaying(self):
        table = PARAMS.weight_table()
        assert table[0] == 1.0
        assert all(table[i] >= table[i + 1] for i in range(len(table) - 1))

    def test_twiddles_are_unit_magnitude(self):
        re, im = PARAMS.twiddles()
        for r, i in zip(re, im):
            assert r * r + i * i == pytest.approx(1.0, abs=1e-12)

    def test_bit_reversal_is_involution(self):
        rev = PARAMS.bit_reversal()
        assert sorted(rev) == list(range(PARAMS.block))
        assert all(rev[rev[i]] == i for i in range(PARAMS.block))


class TestImages:
    def test_deterministic_and_in_range(self):
        for idx in range(NUM_TEST_IMAGES):
            img1 = make_image(idx, 8)
            img2 = make_image(idx, 8)
            assert img1 == img2
            assert all(0 <= p <= 255 for row in img1 for p in row)

    def test_masks_have_losses_and_support(self):
        for idx in range(NUM_TEST_IMAGES):
            mask = make_mask(idx, 8)
            flat = [v for row in mask for v in row]
            assert 0 in flat, f"mask {idx} has no losses"
            assert sum(flat) >= 2, f"mask {idx} has no support"

    def test_images_differ_between_indices(self):
        assert make_image(0, 8) != make_image(1, 8)

    def test_index_bounds(self):
        with pytest.raises(ValueError):
            make_image(NUM_TEST_IMAGES, 8)
        with pytest.raises(ValueError):
            make_mask(-1, 8)


class TestFftReference:
    def test_matches_numpy(self):
        rng = np.random.default_rng(5)
        data = rng.normal(size=8) + 1j * rng.normal(size=8)
        re = list(data.real)
        im = list(data.imag)
        ref.fft_inplace(re, im, PARAMS, inverse=False)
        expected = np.fft.fft(data)
        np.testing.assert_allclose(np.array(re) + 1j * np.array(im),
                                   expected, rtol=1e-12, atol=1e-12)

    def test_inverse_is_unscaled(self):
        rng = np.random.default_rng(6)
        data = rng.normal(size=8)
        re, im = list(data), [0.0] * 8
        ref.fft_inplace(re, im, PARAMS, inverse=False)
        ref.fft_inplace(re, im, PARAMS, inverse=True)
        np.testing.assert_allclose(np.array(re) / 8.0, data, rtol=1e-12)

    def test_fft2_matches_numpy(self):
        rng = np.random.default_rng(7)
        data = rng.normal(size=(8, 8))
        re = list(data.flatten())
        im = [0.0] * 64
        ref.fft2(re, im, PARAMS, inverse=False)
        expected = np.fft.fft2(data)
        np.testing.assert_allclose(
            np.array(re).reshape(8, 8) + 1j * np.array(im).reshape(8, 8),
            expected, rtol=1e-10, atol=1e-9)


class TestReconstruction:
    def test_known_pixels_untouched(self):
        image, mask = fse_case(3, 8)
        recon = ref.reconstruct(image, mask, PARAMS)
        for y in range(8):
            for x in range(8):
                if mask[y][x]:
                    assert recon[y][x] == image[y][x]

    def test_lost_pixels_filled_plausibly(self):
        image, mask = fse_case(0, 8)
        recon = ref.reconstruct(image, mask, PARAMS)
        lost = [(y, x) for y in range(8) for x in range(8) if not mask[y][x]]
        assert lost
        for y, x in lost:
            assert 0 <= recon[y][x] <= 255

    def test_extrapolation_reduces_error_vs_constant_fill(self):
        """FSE should beat filling losses with mid-grey on smooth content."""
        params = FseParams(block=8, iterations=10)
        image, mask = fse_case(4, 8)
        recon = ref.reconstruct(image, mask, params)
        err_fse = 0
        err_flat = 0
        for y in range(8):
            for x in range(8):
                if not mask[y][x]:
                    err_fse += (recon[y][x] - image[y][x]) ** 2
                    err_flat += (128 - image[y][x]) ** 2
        assert err_fse < err_flat

    def test_full_mask_is_identity(self):
        image = make_image(2, 8)
        mask = [[1] * 8 for _ in range(8)]
        assert ref.reconstruct(image, mask, PARAMS) == image

    def test_bad_size_rejected(self):
        with pytest.raises(ValueError):
            ref.reconstruct([[0] * 12 for _ in range(12)],
                            [[1] * 12 for _ in range(12)], PARAMS)

    def test_checksum_rolls(self):
        assert ref.checksum([[1, 2]]) == ((1 * 31) + 2) & 0xFFFFFFFF


class TestKernelParity:
    @pytest.mark.parametrize("index", [0, 5])
    def test_hard_and_soft_match_reference(self, index):
        image, mask = fse_case(index, 8)
        expected = ref.checksum(ref.reconstruct(image, mask, PARAMS))
        res_hard = run_kir(build_fse_kernel(index, PARAMS, size=8),
                           float_abi="hard")
        res_soft = run_kir(build_fse_kernel(index, PARAMS, size=8),
                           float_abi="soft", has_fpu=False)
        assert res_hard.console.strip() == str(expected)
        assert res_soft.console.strip() == str(expected)

    def test_hard_build_uses_fpu_heavily(self):
        result = run_kir(build_fse_kernel(0, PARAMS, size=8),
                         float_abi="hard")
        counts = result.category_counts
        assert counts["fpu_arith"] > 1000
        assert counts["fpu_div"] >= 1  # the 1/W0 normalisation

    def test_soft_build_is_fpu_free_and_heavier(self):
        hard = run_kir(build_fse_kernel(0, PARAMS, size=8), float_abi="hard")
        soft = run_kir(build_fse_kernel(0, PARAMS, size=8),
                       float_abi="soft", has_fpu=False)
        assert soft.category_counts["fpu_arith"] == 0
        assert soft.retired > 3 * hard.retired

    def test_multiblock_image(self):
        params = FseParams(block=8, iterations=3)
        image = make_image(1, 16)
        mask = make_mask(1, 16)
        expected = ref.checksum(ref.reconstruct(image, mask, params))
        module = build_fse_module(image, mask, params, name="fse16")
        result = run_kir(module, float_abi="hard")
        assert result.console.strip() == str(expected)
