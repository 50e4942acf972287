"""The profile algebra: composition laws and compose-vs-simulate parity.

The contracts under test (see :mod:`repro.nfp.linear`):

* profiles form a commutative monoid under :func:`add_profiles` with
  :func:`identity_profile` neutral, and ``scale_profile(p, n)`` equals
  the n-fold add -- all exact, integers only (composition happens on
  profiles; lowered vectors are only priced);
* :func:`offset_sites` changes no NFP (site keys only group counts);
* :func:`compose_profiles` prices a weighted mix of real stage
  invocations bit-identically in cycles/retired to metering every
  invocation with the stepwise oracle (energy <= 1e-12 relative), for
  any stage order and any frame mix -- the exactness the pipeline
  workloads stand on.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hw.config import HwConfig
from repro.nfp.linear import (
    SITE_SPAN,
    ExecutionProfile,
    LinearNfpEngine,
    add_profiles,
    canonical_basis,
    compose_profiles,
    identity_profile,
    offset_sites,
    scale_profile,
)
from repro.vm.blocks import FLAG_BRANCH, cost_flags
from repro.vm.config import CoreConfig

from tests.helpers import meter_stepwise

BASIS = canonical_basis()
FLAGS = cost_flags()


@st.composite
def profiles(draw):
    """A structurally valid ExecutionProfile (with site tables)."""
    mnemonics = {}
    retired = 0
    for m in draw(st.lists(st.sampled_from(BASIS), min_size=1,
                           max_size=10, unique=True)):
        count = draw(st.integers(min_value=1, max_value=10**6))
        jsum = draw(st.integers(min_value=0, max_value=count * 65535))
        if FLAGS.get(m) == FLAG_BRANCH:
            uc = draw(st.integers(min_value=0, max_value=count))
            uj = draw(st.integers(min_value=0, max_value=uc * 65535))
        else:
            uc = uj = 0
        mnemonics[m] = (count, jsum, uc, uj)
        retired += count

    def site_table(span: int):
        return {key: (draw(st.integers(1, 10**4)),
                      draw(st.integers(0, 10**4 * 65535)))
                for key in draw(st.lists(st.integers(0, span),
                                         max_size=4, unique=True))}

    return ExecutionProfile(
        retired=retired, clean=draw(st.booleans()), mnemonics=mnemonics,
        branch_sites=site_table(400), div_sites=site_table(400),
        save_depths=site_table(24), restore_depths=site_table(24))


@settings(max_examples=40, deadline=None)
@given(profiles(), profiles(), profiles())
def test_add_is_commutative_and_associative(a, b, c):
    assert add_profiles(a, b) == add_profiles(b, a)
    assert add_profiles(add_profiles(a, b), c) == \
        add_profiles(a, add_profiles(b, c)) == add_profiles(a, b, c)


@settings(max_examples=40, deadline=None)
@given(profiles())
def test_identity_is_neutral(p):
    assert add_profiles() == identity_profile()
    assert add_profiles(p, identity_profile()) == p
    assert add_profiles(identity_profile(), p) == p


@settings(max_examples=25, deadline=None)
@given(profiles(), st.integers(min_value=0, max_value=5))
def test_scale_equals_repeated_add(p, n):
    assert scale_profile(p, n) == add_profiles(*([p] * n))


def test_scale_rejects_negative_counts():
    with pytest.raises(ValueError):
        scale_profile(identity_profile(), -1)


@settings(max_examples=20, deadline=None)
@given(profiles(), st.integers(min_value=1, max_value=3))
def test_offset_sites_changes_no_nfp(p, windows_of_span):
    """Rebasing site keys is pricing-invariant (it only disambiguates)."""
    shifted = offset_sites(p, windows_of_span * SITE_SPAN)
    assert shifted.retired == p.retired
    for nwindows in (2, 8):
        assert shifted.window_events(nwindows) == p.window_events(nwindows)
    engine = LinearNfpEngine(HwConfig(name="leon3", core=CoreConfig()))
    assert engine.evaluate(shifted) == engine.evaluate(p)


# -- compose-vs-simulate parity on real stage invocations ---------------------

SIZE = 8   # tiny frames: the parity laws are size-independent

HWS = (
    HwConfig(name="leon3", core=CoreConfig(has_fpu=True)),
    HwConfig(name="leon3-nofpu", core=CoreConfig(has_fpu=False)),
)


@pytest.fixture(scope="module")
def stage_runs():
    """Per-stage (profile, per-hw stepwise metering) of real invocations."""
    from repro.dse.evaluate import profile_task
    from repro.runner.tasks import run_task
    from repro.workloads.pipeline import _invocation_program, frame_image

    runs = []
    image = frame_image(2, SIZE)
    for stage in ("bgsub", "threshold", "gauss5x5", "sobel3x3",
                  "histstats"):
        for hw in HWS:
            abi = "hard" if hw.core.has_fpu else "soft"
            program = _invocation_program(stage, image, SIZE, abi)
            payload = run_task(profile_task(program, 10**7, hw.core))
            profile = ExecutionProfile.from_payload(payload["profile"])
            raw = meter_stepwise(program, hw, max_instructions=10**7)
            runs.append((stage, hw, profile, raw))
    return runs


@settings(max_examples=15, deadline=None)
@given(st.data())
def test_compose_matches_metered_stream(stage_runs, data):
    """Any stage order, any frame mix: composed == metered, exactly.

    Cycles and retired counts of the composed profile are bit-identical
    to the weighted sum of per-invocation metered runs -- the exact
    oracle the pipeline workloads rely on -- and composed energy is
    within 1e-12 relative of the combined metered energy.
    """
    hw = data.draw(st.sampled_from(HWS))
    pool = [(stage, profile, raw)
            for stage, run_hw, profile, raw in stage_runs if run_hw is hw]
    chosen = data.draw(st.lists(st.sampled_from(pool), min_size=1,
                                max_size=6))
    counts = [data.draw(st.integers(min_value=1, max_value=1000))
              for _ in chosen]
    composed = compose_profiles(
        [(profile, count)
         for (_, profile, _), count in zip(chosen, counts)])
    nfp = LinearNfpEngine(hw).evaluate(composed)

    want_cycles = sum(count * raw.cycles
                      for (_, _, raw), count in zip(chosen, counts))
    want_retired = sum(count * raw.sim.retired
                       for (_, _, raw), count in zip(chosen, counts))
    assert nfp.cycles == want_cycles
    assert nfp.retired == want_retired
    assert nfp.true_time_s == want_cycles * hw.cycle_seconds
    dyn_nj = math.fsum(count * raw.dyn_energy_nj
                       for (_, _, raw), count in zip(chosen, counts))
    want_energy = dyn_nj * 1e-9 + hw.static_power_w * nfp.true_time_s
    assert nfp.true_energy_j == pytest.approx(want_energy, rel=1e-12)
