"""Batch NFP evaluation: bit-compatibility with the per-point engine.

The contract under test (see :class:`repro.nfp.linear.BatchNfpEngine`):
for *any* configuration batch and *any* execution profile, batch pricing
returns bit-identical integer cycles and times versus one
:class:`~repro.nfp.linear.LinearNfpEngine` per configuration, and
energies within 1e-12 relative, independently of how a batch is
composed.  The dot products visit only a profile's support, and equal
the dense dots over the whole basis bit for bit.
"""

from __future__ import annotations

import dataclasses
import math
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dse import DesignSpace
from repro.hw.config import HwConfig, ScaledDynTable
from repro.nfp.linear import (
    BatchNfpEngine,
    ExecutionProfile,
    LinearNfpEngine,
    canonical_basis,
    cycle_dot,
    energy_dots,
    lower_profile,
)
from repro.vm.blocks import FLAG_BRANCH, cost_flags
from repro.vm.config import CoreConfig

BASIS = canonical_basis()
FLAGS = cost_flags()


@st.composite
def profiles(draw) -> ExecutionProfile:
    """A structurally valid ExecutionProfile over the canonical basis."""
    mnemonics = {}
    chosen = draw(st.lists(st.sampled_from(BASIS), min_size=1, max_size=12,
                           unique=True))
    retired = 0
    for m in chosen:
        count = draw(st.integers(min_value=1, max_value=10**6))
        jsum = draw(st.integers(min_value=0, max_value=count * 65535))
        if FLAGS.get(m) == FLAG_BRANCH:
            uc = draw(st.integers(min_value=0, max_value=count))
            uj = draw(st.integers(min_value=0, max_value=uc * 65535))
        else:
            uc = uj = 0
        mnemonics[m] = (count, jsum, uc, uj)
        retired += count

    def depth_table():
        return {depth: (draw(st.integers(1, 10**4)),
                        draw(st.integers(0, 10**4 * 65535)))
                for depth in draw(st.lists(st.integers(0, 24),
                                           max_size=4, unique=True))}

    div_sites = {pc * 4: (draw(st.integers(1, 1000)),
                          draw(st.integers(0, 32 * 1000)))
                 for pc in draw(st.lists(st.integers(0, 100),
                                         max_size=3, unique=True))}
    return ExecutionProfile(
        retired=retired, clean=True, mnemonics=mnemonics,
        branch_sites={}, div_sites=div_sites,
        save_depths=depth_table(), restore_depths=depth_table())


@st.composite
def spaces(draw) -> DesignSpace:
    """A small design space over the stock axes (random value sets)."""
    # unique after rounding *and* labelling: two clocks sharing a
    # configuration label are rejected by DesignSpace
    clocks = draw(st.lists(
        st.floats(min_value=1.0, max_value=500.0,
                  allow_nan=False, allow_infinity=False).map(
                      lambda c: round(c, 4)),
        min_size=1, max_size=3, unique_by=lambda c: f"{c:g}"))
    nwindows = draw(st.lists(st.sampled_from((2, 3, 4, 6, 8, 16, 24)),
                             min_size=1, max_size=3, unique=True))
    wait_states = draw(st.lists(st.integers(0, 6),
                                min_size=1, max_size=3, unique=True))
    return DesignSpace((
        ("clock_mhz", tuple(clocks)),
        ("fpu", (False, True)),
        ("nwindows", tuple(nwindows)),
        ("wait_states", tuple(wait_states)),
    ))


def batch_hws(space: DesignSpace) -> list[HwConfig]:
    base = HwConfig(name="leon3", core=CoreConfig())
    return [config.hw for config in space.iter_configs(base)]


def assert_batch_matches_per_point(hws, profile):
    vectors = lower_profile(profile)
    batch = BatchNfpEngine(hws).evaluate(vectors)
    assert len(batch) == len(hws)
    for hw, got in zip(hws, batch):
        want = LinearNfpEngine(hw).evaluate(profile)
        assert got.cycles == want.cycles
        assert got.true_time_s == want.true_time_s
        assert got.spills == want.spills
        assert got.fills == want.fills
        assert got.retired == want.retired
        assert got.true_energy_j == pytest.approx(
            want.true_energy_j, rel=1e-12)
        assert got.dyn_energy_nj == pytest.approx(
            want.dyn_energy_nj, rel=1e-12)


@settings(max_examples=25, deadline=None)
@given(spaces(), profiles())
def test_batch_bit_compatible_with_per_point_engine(space, profile):
    """Cycles/times bit-identical, energy <= 1e-12 rel, any axis combo."""
    assert_batch_matches_per_point(batch_hws(space), profile)


@settings(max_examples=15, deadline=None)
@given(spaces(), profiles(), st.integers(min_value=1, max_value=7))
def test_batch_composition_independent(space, profile, cut):
    """Splitting a batch anywhere yields the same per-config results."""
    hws = batch_hws(space)
    vectors = lower_profile(profile)
    whole = BatchNfpEngine(hws).evaluate(vectors)
    cut = cut % len(hws)
    split = (BatchNfpEngine(hws[:cut]).evaluate(vectors) if cut
             else []) + BatchNfpEngine(hws[cut:]).evaluate(vectors)
    assert whole == split


def test_scaled_dyn_table_is_entrywise_exact():
    base = HwConfig().dyn_energy_nj
    scale = 0.7542
    table = ScaledDynTable(base, scale)
    assert dict(table) == {m: nj * scale for m, nj in base.items()}
    assert table.base is base
    assert table.scale == scale


def test_scaled_dyn_table_survives_worker_pickling():
    """HwConfig pickling flattens the table to a plain mapping.

    Workers only lose the fast dedup (they reprice from the entries),
    never correctness -- the entries are the same floats.
    """
    from repro.dse.axes import get_axis

    base = HwConfig(name="leon3", core=CoreConfig())
    hw = get_axis("clock_mhz").apply(base, 25.0)
    assert isinstance(hw.dyn_energy_nj, ScaledDynTable)
    clone = pickle.loads(pickle.dumps(hw))
    assert not isinstance(clone.dyn_energy_nj, ScaledDynTable)
    assert dict(clone.dyn_energy_nj) == dict(hw.dyn_energy_nj)
    assert clone.cycle_table == hw.cycle_table


@settings(max_examples=10, deadline=None)
@given(profiles())
def test_scaled_table_prices_like_its_plain_copy(profile):
    """Factored pricing == pricing the materialized derived table."""
    base = HwConfig(name="leon3", core=CoreConfig())
    from repro.dse.axes import get_axis
    hw = get_axis("clock_mhz").apply(base, 30.0)
    plain = dataclasses.replace(hw, dyn_energy_nj=dict(hw.dyn_energy_nj))
    vectors = lower_profile(profile)
    factored = BatchNfpEngine([hw]).evaluate(vectors)[0]
    exact = BatchNfpEngine([plain]).evaluate(vectors)[0]
    assert factored.cycles == exact.cycles
    assert factored.true_time_s == exact.true_time_s
    assert factored.true_energy_j == pytest.approx(
        exact.true_energy_j, rel=1e-12)


# -- support dot products vs the dense basis ---------------------------------

@st.composite
def sparse_profiles(draw) -> ExecutionProfile:
    """Profiles with zero counts, centred jitter of either sign and
    branches whose every retire was untaken."""
    mnemonics = {}
    for m in draw(st.lists(st.sampled_from(BASIS), max_size=16,
                           unique=True)):
        count = draw(st.integers(min_value=0, max_value=10**6))
        # below count * 2**15 the centred jitter is negative
        jsum = draw(st.integers(min_value=0, max_value=count * 65535))
        uc = uj = 0
        if FLAGS.get(m) == FLAG_BRANCH:
            uc = draw(st.just(count) | st.integers(0, count))
            uj = draw(st.integers(min_value=0, max_value=uc * 65535))
        mnemonics[m] = (count, jsum, uc, uj)
    return ExecutionProfile(
        retired=sum(cell[0] for cell in mnemonics.values()), clean=True,
        mnemonics=mnemonics, branch_sites={}, div_sites={},
        save_depths={}, restore_depths={})


def stock_tables() -> tuple[list, list]:
    """The base platform's cost tables and every distinct one of the
    stock grid derived from them."""
    base = HwConfig(name="leon3", core=CoreConfig())
    cycles = {id(base.cycle_table): base.cycle_table}
    energies = {id(base.dyn_energy_nj): base.dyn_energy_nj}
    for config in DesignSpace.default().iter_configs(base):
        cycles.setdefault(id(config.hw.cycle_table), config.hw.cycle_table)
        energies.setdefault(id(config.hw.dyn_energy_nj),
                            config.hw.dyn_energy_nj)
    return list(cycles.values()), list(energies.values())


def dense_cycle_dot(table, vectors) -> int:
    return sum(table[m] * count
               for m, count in zip(vectors.basis, vectors.counts))


def dense_energy_dots(table, vectors) -> tuple[float, ...]:
    row = [table[m] for m in vectors.basis]
    return tuple(math.fsum(d * x for d, x in zip(row, column))
                 for column in (vectors.fcounts, vectors.jcent,
                                vectors.ucounts, vectors.ujcent))


@settings(max_examples=60, deadline=None)
@given(sparse_profiles())
def test_support_dots_equal_the_dense_basis(profile):
    """Skipping the slots a profile never retired changes no bit."""
    vectors = lower_profile(profile)
    cycle_tables, energy_tables = stock_tables()
    assert len(cycle_tables) == 3 and len(energy_tables) == 4
    for table in cycle_tables:
        assert cycle_dot(table, vectors) == dense_cycle_dot(table, vectors)
    for table in energy_tables:
        got = energy_dots(table, vectors)
        want = dense_energy_dots(table, vectors)
        assert [x.hex() for x in got] == [x.hex() for x in want]
