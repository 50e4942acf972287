"""The axis registry and multi-dimensional design spaces.

An :class:`Axis` is one named hardware parameter the exploration can
sweep -- how to apply a value to a priced :class:`~repro.hw.config.HwConfig`,
how to label it inside a configuration name, and which values a default
sweep uses.  A :class:`DesignSpace` is an ordered selection of axes with
value lists; its cartesian product yields the candidate platforms
(:class:`SweepConfig`) a sweep runs every workload on.

The registry is extensible: anything that can be expressed as a
transformation of ``HwConfig`` (clock, cost tables, core parameters,
static power, ...) can be registered as a new axis with
:func:`register_axis` and immediately swept via ``DesignSpace.from_spec``
or the ``repro dse --axes`` CLI flag.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from types import MappingProxyType
from typing import Callable, Sequence

from repro.hw.config import HwConfig, ScaledDynTable, check_clock_hz
from repro.hw.timing import cycle_table_with_wait_states


@dataclass(frozen=True)
class AxisLowering:
    """Per-value cost-model effects of one axis, for streamed sweeps.

    Aligned with the axis' value list; only the fields the axis touches
    are set.  ``dyn_scales``/``clock_hz`` describe a DVFS-style axis
    (dynamic energy, trap energy and static power scale; the clock
    retimes), ``cycle_tables`` replaces the cycle table per value,
    ``nwindows``/``has_fpu`` adjust the core, and an instance with no
    fields set declares the axis NFP-inert (``block_size``).  Each
    table derivation must match the axis' ``apply`` bit-for-bit -- the
    streamed-vs-materialized byte-identity tests enforce it -- and the
    hook must raise the ``ValueError`` that ``apply`` raises for a value
    the platform config rejects.
    """

    dyn_scales: tuple[float, ...] | None = None
    clock_hz: tuple[float, ...] | None = None
    cycle_tables: tuple | None = None
    nwindows: tuple[int, ...] | None = None
    has_fpu: tuple[bool, ...] | None = None


@dataclass(frozen=True)
class Axis:
    """One sweepable hardware parameter.

    Attributes
    ----------
    name:
        Registry key (``clock_mhz``, ``fpu``, ...).
    values:
        Default sweep values, in sweep order.
    apply:
        ``(hw, value) -> hw`` transformation (must be pure).
    label:
        ``value -> str`` fragment used in generated configuration names.
    parse:
        ``str -> value`` parser for CLI-provided value lists.
    doc:
        One-line description shown in help/reports.
    lower:
        ``(base_hw, values) -> AxisLowering`` hook, required for
        streamed sweeps: :func:`repro.dse.engine.sweep_streamed` prices
        the cartesian product from these factored per-axis tables
        instead of applying ``apply`` per config, and refuses a space
        with an axis that has none (``None``: materialized sweeps only).
    refine:
        Optional ``(a, b) -> mid | None`` midpoint hook between two
        swept values; axes with one are eligible for the adaptive
        refinement pass (``repro dse --refine``).  ``None`` (the hook
        result) means no value lies strictly between ``a`` and ``b``.
    """

    name: str
    values: tuple
    apply: Callable[[HwConfig, object], HwConfig]
    label: Callable[[object], str]
    parse: Callable[[str], object]
    doc: str = ""
    lower: Callable[[HwConfig, tuple], AxisLowering] | None = None
    refine: Callable[[object, object], object | None] | None = None


def _parse_bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("1", "true", "yes", "on", "fpu"):
        return True
    if lowered in ("0", "false", "no", "off", "nofpu"):
        return False
    raise ValueError(f"not a boolean axis value: {text!r}")


#: The paper's synthesis frequency; voltage scaling is normalised to it.
BASE_CLOCK_MHZ = 50.0

#: Derived cost-table memo: ``(kind, id(base), param) -> (base, table)``.
#: Applying the same axis value to the same base table yields the *same
#: object*, so batch evaluation dedupes rows by identity and million-
#: config iteration never rebuilds a table it has already derived.  The
#: stored base reference keeps the id from being recycled; the memo is
#: cleared (not evicted piecemeal) if it ever grows degenerate.
_DERIVED_TABLES: dict[tuple, tuple] = {}


def _derived_table(kind: str, base, param, build):
    key = (kind, id(base), param)
    hit = _DERIVED_TABLES.get(key)
    if hit is not None and hit[0] is base:
        return hit[1]
    if len(_DERIVED_TABLES) > 65536:
        _DERIVED_TABLES.clear()
    table = build()
    _DERIVED_TABLES[key] = (base, table)
    return table


def _clock_scale(mhz: float) -> float:
    """The ``V^2`` energy/power factor of clocking at ``mhz`` (1.0 at base)."""
    voltage = 0.7 + 0.3 * (mhz / BASE_CLOCK_MHZ)
    return voltage * voltage


def _apply_clock(hw: HwConfig, mhz) -> HwConfig:
    """Clock the platform at ``mhz``, with first-order voltage scaling.

    Timing closure at a higher frequency needs a higher supply voltage
    (affine V-f approximation, ``V/V0 = 0.7 + 0.3 f/f0``); dynamic
    energy per instruction and static power both scale with ``V^2``.  At
    the 50 MHz baseline the factors are exactly 1.0, so the axis leaves
    the paper's platform bit-identical.  This is what makes the clock a
    genuine design axis: raising it buys time but costs dynamic energy,
    lowering it saves dynamic energy but pays static leakage for longer.
    """
    mhz = float(mhz)
    scale = _clock_scale(mhz)
    dyn = _derived_table(
        "dyn", hw.dyn_energy_nj, scale,
        lambda: ScaledDynTable(hw.dyn_energy_nj, scale))
    return replace(
        hw, clock_hz=mhz * 1e6,
        static_power_w=hw.static_power_w * scale,
        window_trap_energy_nj=hw.window_trap_energy_nj * scale,
        dyn_energy_nj=dyn)


def _apply_fpu(hw: HwConfig, present) -> HwConfig:
    return replace(hw, core=replace(hw.core, has_fpu=bool(present)))


def _apply_nwindows(hw: HwConfig, nwindows) -> HwConfig:
    return replace(hw, core=replace(hw.core, nwindows=int(nwindows)))


def _apply_wait_states(hw: HwConfig, wait_states) -> HwConfig:
    ws = int(wait_states)
    table = _derived_table(
        "cycle", hw.cycle_table, ws,
        lambda: MappingProxyType(
            cycle_table_with_wait_states(hw.cycle_table, ws)))
    return replace(hw, cycle_table=table)


def _apply_block_size(hw: HwConfig, block_size) -> HwConfig:
    return replace(hw, core=replace(hw.core, block_size=int(block_size)))


# -- streamed-sweep lowering hooks (must mirror the apply functions) ---------

def _lower_clock(hw: HwConfig, values: tuple) -> AxisLowering:
    mhzs = [float(v) for v in values]
    clocks = tuple(mhz * 1e6 for mhz in mhzs)
    for clock_hz in clocks:   # the HwConfig check, without building one
        check_clock_hz(clock_hz)
    return AxisLowering(
        dyn_scales=tuple(_clock_scale(mhz) for mhz in mhzs),
        clock_hz=clocks)


def _lower_fpu(hw: HwConfig, values: tuple) -> AxisLowering:
    return AxisLowering(has_fpu=tuple(bool(v) for v in values))


def _lower_nwindows(hw: HwConfig, values: tuple) -> AxisLowering:
    return AxisLowering(nwindows=tuple(
        _apply_nwindows(hw, v).core.nwindows for v in values))


def _lower_wait_states(hw: HwConfig, values: tuple) -> AxisLowering:
    return AxisLowering(cycle_tables=tuple(
        _apply_wait_states(hw, v).cycle_table for v in values))


def _lower_block_size(hw: HwConfig, values: tuple) -> AxisLowering:
    for value in values:    # the CoreConfig range check only
        _apply_block_size(hw, value)
    return AxisLowering()   # simulator knob: NFPs and area are invariant


def _refine_float(a, b):
    """Float midpoint, or None when the interval is empty."""
    a, b = float(a), float(b)
    mid = (a + b) / 2.0
    return mid if min(a, b) < mid < max(a, b) else None


def _refine_int(a, b):
    """Integer midpoint strictly between ``a`` and ``b``, or None."""
    lo, hi = sorted((int(a), int(b)))
    mid = (lo + hi) // 2
    return mid if lo < mid < hi else None


AXES: dict[str, Axis] = {}


def register_axis(axis: Axis) -> Axis:
    """Add ``axis`` to the registry (later registrations may override)."""
    AXES[axis.name] = axis
    return axis


def get_axis(name: str) -> Axis:
    try:
        return AXES[name]
    except KeyError:
        raise ValueError(f"unknown design-space axis {name!r}; "
                         f"available: {sorted(AXES)}") from None


register_axis(Axis(
    name="clock_mhz", values=(25.0, 50.0, 80.0),
    apply=_apply_clock, label=lambda v: f"clk{v:g}", parse=float,
    doc="core clock frequency in MHz (time vs static energy)",
    lower=_lower_clock, refine=_refine_float))
register_axis(Axis(
    name="fpu", values=(False, True),
    apply=_apply_fpu, label=lambda v: "fpu" if v else "nofpu",
    parse=_parse_bool,
    doc="FPU presence (hard-float builds vs soft-float, Table IV)",
    lower=_lower_fpu))
register_axis(Axis(
    name="nwindows", values=(4, 8, 16),
    apply=_apply_nwindows, label=lambda v: f"w{v}", parse=int,
    doc="register windows (area vs window-trap overhead; 16 windows are "
        "over-provisioned for call-shallow kernels and come out "
        "Pareto-dominated)",
    lower=_lower_nwindows, refine=_refine_int))
register_axis(Axis(
    name="wait_states", values=(0, 2),
    apply=_apply_wait_states, label=lambda v: f"ws{v}", parse=int,
    doc="memory wait states per bus access (area vs memory latency)",
    lower=_lower_wait_states, refine=_refine_int))
register_axis(Axis(
    name="block_size", values=(8, 32),
    apply=_apply_block_size, label=lambda v: f"bs{v}", parse=int,
    doc="superblock fusion cap (simulator knob; NFPs are invariant)",
    lower=_lower_block_size))

#: The stock sweep: 3 x 2 x 3 x 2 = 36 candidate platforms.
DEFAULT_AXIS_NAMES = ("clock_mhz", "fpu", "nwindows", "wait_states")


@dataclass(frozen=True)
class SweepConfig:
    """One fully-applied candidate platform of a sweep."""

    name: str
    axis_values: tuple[tuple[str, object], ...]
    hw: HwConfig

    def value(self, axis_name: str, default=None):
        """The value this configuration holds on ``axis_name``."""
        for name, value in self.axis_values:
            if name == axis_name:
                return value
        return default


@dataclass(frozen=True)
class DesignSpace:
    """An ordered selection of axes with their sweep values."""

    axes: tuple[tuple[str, tuple], ...]

    def __post_init__(self) -> None:
        seen = set()
        for name, values in self.axes:
            axis = get_axis(name)  # must exist
            if not values:
                raise ValueError(f"axis {name!r} has no values")
            if name in seen:
                raise ValueError(f"axis {name!r} listed twice")
            seen.add(name)
            if len(values) < 2:     # e.g. every /v1/price request's space
                continue
            # configurations are named by their labels, so two values
            # sharing one would collide in every grid and report
            labelled: dict[str, object] = {}
            for value in values:
                label = axis.label(value)
                if label in labelled:
                    raise ValueError(
                        f"axis {name!r} values {labelled[label]!r} and "
                        f"{value!r} share the label {label!r}")
                labelled[label] = value

    @classmethod
    def default(cls) -> "DesignSpace":
        """The stock multi-dimensional space (see :data:`DEFAULT_AXIS_NAMES`)."""
        return cls(tuple((name, get_axis(name).values)
                         for name in DEFAULT_AXIS_NAMES))

    @classmethod
    def single(cls, name: str, values: Sequence | None = None) -> "DesignSpace":
        """A one-axis space (used by presets such as the Table IV FPU sweep)."""
        axis = get_axis(name)
        return cls(((name, tuple(values if values is not None
                                 else axis.values)),))

    @classmethod
    def from_spec(cls, spec: str) -> "DesignSpace":
        """Parse ``"clock_mhz=25:50,fpu,nwindows=4:8"`` into a space.

        Comma-separated axis entries; each is either a bare registered
        axis name (its default values) or ``name=v1:v2:...`` with values
        parsed by the axis' own parser.
        """
        axes = []
        for entry in spec.split(","):
            entry = entry.strip()
            if not entry:
                continue
            name, eq, values_text = entry.partition("=")
            axis = get_axis(name.strip())
            if eq:
                values = tuple(axis.parse(v) for v in values_text.split(":"))
            else:
                values = axis.values
            axes.append((axis.name, values))
        if not axes:
            raise ValueError(f"empty design-space spec {spec!r}")
        return cls(tuple(axes))

    @property
    def size(self) -> int:
        n = 1
        for _, values in self.axes:
            n *= len(values)
        return n

    @property
    def axis_names(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.axes)

    def check(self, base: HwConfig | None = None) -> None:
        """Raise ``ValueError`` for any axis value the platform rejects.

        Runs each axis' lowering hook where it has one (cheap over long
        value lists), else applies every value to ``base``.
        """
        base = base if base is not None else HwConfig()
        for name, values in self.axes:
            axis = get_axis(name)
            if axis.lower is not None:
                axis.lower(base, tuple(values))
            else:
                for value in values:
                    axis.apply(base, value)

    def configs(self, base: HwConfig | None = None) -> tuple[SweepConfig, ...]:
        """Every candidate platform, in deterministic product order."""
        return tuple(self.iter_configs(base))

    def iter_configs(self, base: HwConfig | None = None):
        """Candidate platforms one at a time, in the same product order.

        The streaming counterpart of :meth:`configs`: nothing is
        materialized, and axis applications are shared across product
        prefixes (the first axis applies once per value, not once per
        config) -- with the axes' derived-table memoization this makes
        iteration over million-config spaces cheap enough to price.
        """
        base = base if base is not None else HwConfig()
        axes = [(get_axis(name), values) for name, values in self.axes]
        names = self.axis_names

        def rec(i: int, hw: HwConfig, labels: tuple, combo: tuple):
            if i == len(axes):
                name = "-".join(labels)
                yield SweepConfig(
                    name=name,
                    axis_values=tuple(zip(names, combo)),
                    hw=replace(hw, name=name))
                return
            axis, values = axes[i]
            for value in values:
                yield from rec(i + 1, axis.apply(hw, value),
                               labels + (axis.label(value),),
                               combo + (value,))

        yield from rec(0, base, (), ())

    def config_for(self, combo: Sequence,
                   base: HwConfig | None = None) -> SweepConfig:
        """Build the single candidate holding ``combo``'s per-axis values.

        ``combo`` is aligned with :attr:`axes`; the values need not lie
        on the swept grids (the refinement pass evaluates midpoints this
        way), only in each axis' domain.
        """
        base = base if base is not None else HwConfig()
        if len(combo) != len(self.axes):
            raise ValueError(
                f"combo has {len(combo)} values for {len(self.axes)} axes")
        hw = base
        labels = []
        for (name, _), value in zip(self.axes, combo):
            axis = get_axis(name)
            hw = axis.apply(hw, value)
            labels.append(axis.label(value))
        name = "-".join(labels)
        return SweepConfig(
            name=name,
            axis_values=tuple(zip(self.axis_names, tuple(combo))),
            hw=replace(hw, name=name))
