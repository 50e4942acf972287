"""The axis registry and multi-dimensional design spaces.

An :class:`Axis` is one named hardware parameter the exploration can
sweep -- how it lowers a list of values onto a priced
:class:`~repro.hw.config.HwConfig` (its :class:`AxisLowering`), how to
label a value inside a configuration name, and which values a default
sweep uses.  A :class:`DesignSpace` is an ordered selection of axes with
value lists; its cartesian product yields the candidate platforms
(:class:`SweepConfig`) a sweep runs every workload on.

The lowering is the axis' one definition: materialized sweeps build
each configuration from it (:meth:`AxisLowering.apply`), and streamed
sweeps price the product straight from its per-value tables.  The
registry is extensible: any parameter expressed in
:class:`AxisLowering` fields (clock and DVFS scale, cycle table, core
window count, FPU presence or block size) can be registered as a new
axis with :func:`register_axis` and immediately swept via
``DesignSpace.from_spec`` or the ``repro dse --axes`` CLI flag.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from types import MappingProxyType
from typing import Callable, Sequence

from repro.hw.config import HwConfig, ScaledDynTable, check_clock_hz
from repro.hw.timing import cycle_table_with_wait_states


@dataclass(frozen=True)
class AxisLowering:
    """Per-value platform effects of one axis: the axis' definition.

    Aligned with the axis' value list; only the fields the axis touches
    are set.  ``dyn_scales``/``clock_hz`` describe a DVFS-style axis
    (dynamic energy, trap energy and static power scale; the clock
    retimes), ``cycle_tables`` replaces the cycle table per value, and
    ``nwindows``/``has_fpu``/``block_size`` set the core field of that
    name.  Materialized sweeps build configurations from it
    (:meth:`apply`); streamed sweeps price straight from the tables,
    where ``block_size`` is inert (a simulator knob).  The hook that
    builds one raises ``ValueError`` for a value the platform config
    rejects.
    """

    dyn_scales: tuple[float, ...] | None = None
    clock_hz: tuple[float, ...] | None = None
    cycle_tables: tuple | None = None
    nwindows: tuple[int, ...] | None = None
    has_fpu: tuple[bool, ...] | None = None
    block_size: tuple[int, ...] | None = None

    def apply(self, hw: HwConfig, i: int) -> HwConfig:
        """``hw`` with this axis at its value ``i``: the V^2 factor scales
        static power, trap energy and dynamic energy (onto one memoized
        :class:`~repro.hw.config.ScaledDynTable` per base table and
        factor), and every other field replaces its namesake."""
        changes: dict[str, object] = {}
        if self.dyn_scales is not None:
            scale = self.dyn_scales[i]
            base = hw.dyn_energy_nj
            changes.update(
                static_power_w=hw.static_power_w * scale,
                window_trap_energy_nj=hw.window_trap_energy_nj * scale,
                dyn_energy_nj=_derived_table(
                    "dyn", base, scale, lambda: ScaledDynTable(base, scale)))
        if self.clock_hz is not None:
            changes["clock_hz"] = self.clock_hz[i]
        if self.cycle_tables is not None:
            changes["cycle_table"] = self.cycle_tables[i]
        core = {name: getattr(self, name)[i]
                for name in ("nwindows", "has_fpu", "block_size")
                if getattr(self, name) is not None}
        if core:
            changes["core"] = replace(hw.core, **core)
        return replace(hw, **changes)


@dataclass(frozen=True)
class Axis:
    """One sweepable hardware parameter.

    Attributes
    ----------
    name:
        Registry key (``clock_mhz``, ``fpu``, ...).
    values:
        Default sweep values, in sweep order.
    label:
        ``value -> str`` fragment used in generated configuration names.
    parse:
        ``str -> value`` parser for CLI-provided value lists.
    lower:
        ``(base_hw, values) -> AxisLowering`` hook (must be pure): the
        per-value effects every sweep builds its candidates from.
    doc:
        One-line description shown in help/reports.
    refine:
        Optional ``(a, b) -> mid | None`` midpoint hook between two
        swept values; axes with one are eligible for the adaptive
        refinement pass (``repro dse --refine``).  ``None`` (the hook
        result) means no value lies strictly between ``a`` and ``b``.
    """

    name: str
    values: tuple
    label: Callable[[object], str]
    parse: Callable[[str], object]
    lower: Callable[[HwConfig, tuple], AxisLowering]
    doc: str = ""
    refine: Callable[[object, object], object | None] | None = None

    def apply(self, hw: HwConfig, value) -> HwConfig:
        """``hw`` with this axis at ``value``."""
        return self.lower(hw, (value,)).apply(hw, 0)


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


def _lower_clock(hw: HwConfig, values: tuple) -> AxisLowering:
    """Clock the platform at each value (MHz), with voltage scaling.

    Timing closure at a higher frequency needs a higher supply voltage
    (affine V-f approximation, ``V/V0 = 0.7 + 0.3 f/f0``); dynamic
    energy per instruction and static power both scale with ``V^2``.  At
    the 50 MHz baseline the factors are exactly 1.0, so the axis leaves
    the paper's platform bit-identical.  This is what makes the clock a
    genuine design axis: raising it buys time but costs dynamic energy,
    lowering it saves dynamic energy but pays static leakage for longer.
    """
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
    return AxisLowering(nwindows=tuple(   # the CoreConfig range check
        replace(hw.core, nwindows=int(v)).nwindows for v in values))


def _lower_wait_states(hw: HwConfig, values: tuple) -> AxisLowering:
    base = hw.cycle_table
    return AxisLowering(cycle_tables=tuple(
        _derived_table("cycle", base, ws, lambda: MappingProxyType(
            cycle_table_with_wait_states(base, ws)))
        for ws in map(int, values)))


def _lower_block_size(hw: HwConfig, values: tuple) -> AxisLowering:
    return AxisLowering(block_size=tuple(   # the CoreConfig range check
        replace(hw.core, block_size=int(v)).block_size for v in values))


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
    label=lambda v: f"clk{v:g}", parse=float,
    doc="core clock frequency in MHz (time vs static energy)",
    lower=_lower_clock, refine=_refine_float))
register_axis(Axis(
    name="fpu", values=(False, True),
    label=lambda v: "fpu" if v else "nofpu",
    parse=_parse_bool,
    doc="FPU presence (hard-float builds vs soft-float, Table IV)",
    lower=_lower_fpu))
register_axis(Axis(
    name="nwindows", values=(4, 8, 16),
    label=lambda v: f"w{v}", parse=int,
    doc="register windows (area vs window-trap overhead; 16 windows are "
        "over-provisioned for call-shallow kernels and come out "
        "Pareto-dominated)",
    lower=_lower_nwindows, refine=_refine_int))
register_axis(Axis(
    name="wait_states", values=(0, 2),
    label=lambda v: f"ws{v}", parse=int,
    doc="memory wait states per bus access (area vs memory latency)",
    lower=_lower_wait_states, refine=_refine_int))
register_axis(Axis(
    name="block_size", values=(8, 32),
    label=lambda v: f"bs{v}", parse=int,
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

        Runs each axis' lowering hook, which is cheap over long value
        lists.
        """
        base = base if base is not None else HwConfig()
        for name, values in self.axes:
            get_axis(name).lower(base, tuple(values))

    def configs(self, base: HwConfig | None = None) -> tuple[SweepConfig, ...]:
        """Every candidate platform, in deterministic product order."""
        return tuple(self.iter_configs(base))

    def iter_configs(self, base: HwConfig | None = None):
        """Candidate platforms one at a time, in the same product order.

        The streaming counterpart of :meth:`configs`: nothing is
        materialized, every axis lowers once over its values, and axis
        applications are shared across product prefixes (the first axis
        applies once per value, not once per config) -- with the
        derived-table memoization this makes iteration over
        million-config spaces cheap enough to price.
        """
        base = base if base is not None else HwConfig()
        axes = [(get_axis(name), values) for name, values in self.axes]
        lowered = [axis.lower(base, tuple(values)) for axis, values in axes]
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
            for k, value in enumerate(values):
                yield from rec(i + 1, lowered[i].apply(hw, k),
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
