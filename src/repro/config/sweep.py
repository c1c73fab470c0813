"""Scenario and sweep declarations.

The paper's evaluation is a configuration matrix — scheme x workload x
structure sizes — and this module makes such matrices *declarative*: a
sweep names its workloads and a list of scenarios, each scenario pins a
configuration kind plus fixed overrides and optional ``grid``
(cartesian product) and ``zip`` (parallel lists) axes over any model
configuration key. Expansion produces ordinary
:class:`~repro.harness.jobs.SimJob` objects, deduplicated by job hash,
so two scenarios that describe the same point (e.g. a DCI scenario and
the 1-stream point of an MSSR grid) simulate exactly once and share
cache entries.

TOML form (``python -m repro.harness sweep FILE``)::

    [sweep]
    name = "fig10-small"
    workloads = ["suite:micro"]
    scale = 0.1

    [sweep.base]                    # applied to every job
    core.width = 8

    [[scenario]]
    name = "baseline"
    kind = "baseline"

    [[scenario]]
    name = "mssr-grid"
    kind = "mssr"
    [scenario.grid]                 # cartesian product
    mssr.num_streams = [1, 2, 4]
    mssr.wpb_entries = [8, 16]

    [[scenario]]
    name = "wpb-vs-log"
    kind = "mssr"
    [scenario.zip]                  # advanced together
    mssr.wpb_entries = [8, 16, 32]
    mssr.squash_log_entries = [32, 64, 128]

Scenario tables may also override ``workloads``, ``scale`` and
``sampling`` (``true`` or a table of :class:`SamplingSpec` knobs).
"""

import dataclasses
import itertools
import json
import tomllib

from repro.config.schema import field, suggestion

#: Keys understood in a [sweep] table / Sweep(...) call.
_SWEEP_KEYS = ("name", "workloads", "scale", "sampling", "jobs", "base",
               "scenarios")
#: Keys understood in a [[scenario]] table / Scenario(...) call.
_SCENARIO_KEYS = ("name", "kind", "workloads", "scale", "sampling",
                  "set", "grid", "zip")


class SweepError(ValueError):
    """A sweep declaration is malformed."""


@dataclasses.dataclass
class Scenario:
    """One scheme point or axis family within a sweep."""

    name: str
    kind: str = "baseline"
    workloads: tuple = None        # None -> inherit from the sweep
    scale: float = None            # None -> inherit from the sweep
    sampling: object = None        # None -> inherit from the sweep
    set: dict = dataclasses.field(default_factory=dict)
    grid: dict = dataclasses.field(default_factory=dict)
    zip: dict = dataclasses.field(default_factory=dict)

    def points(self):
        """Expand the axes into override dicts (``set`` included)."""
        base = _checked_overrides(self.set, self.name, "set")
        grid = _checked_axes(self.grid, self.name, "grid")
        zipped = _checked_axes(self.zip, self.name, "zip")
        if zipped:
            lengths = {len(values) for values in zipped.values()}
            if len(lengths) != 1:
                raise SweepError(
                    "scenario %r: zip axes must have equal lengths "
                    "(got %s)" % (self.name, sorted(lengths)))
        grid_keys = sorted(grid)
        grid_product = itertools.product(*(grid[key]
                                           for key in grid_keys)) \
            if grid_keys else [()]
        zip_rows = list(zip(*(zipped[key] for key in sorted(zipped)))) \
            if zipped else [()]
        zip_keys = sorted(zipped)
        out = []
        for grid_values in grid_product:
            for zip_values in zip_rows:
                point = dict(base)
                point.update(zip(grid_keys, grid_values))
                point.update(zip(zip_keys, zip_values))
                out.append(point)
        return out


@dataclasses.dataclass
class Sweep:
    """A named batch of scenarios over shared workloads."""

    name: str = "sweep"
    workloads: tuple = ()
    scale: float = 0.15
    sampling: object = None
    jobs: int = None               # harness workers requested by the file
    base: dict = dataclasses.field(default_factory=dict)
    scenarios: list = dataclasses.field(default_factory=list)

    def expand(self):
        """Expand into a deduplicated :class:`SweepPlan`."""
        from repro.harness.jobs import SimJob
        from repro.workloads.registry import get_workload, suite_names

        if not self.scenarios:
            raise SweepError("sweep %r declares no scenarios"
                             % self.name)
        base = _checked_overrides(self.base, self.name, "base")
        entries = []
        unique = {}
        for scenario in self.scenarios:
            names = scenario.workloads or self.workloads
            if not names:
                raise SweepError(
                    "scenario %r has no workloads (set them on the "
                    "scenario or the sweep)" % scenario.name)
            workloads = []
            for name in names:
                if name.startswith("suite:"):
                    workloads.extend(suite_names(name[len("suite:"):]))
                else:
                    get_workload(name)       # fail fast, with suggestions
                    workloads.append(name)
            scale = self.scale if scenario.scale is None \
                else scenario.scale
            sampling = self.sampling if scenario.sampling is None \
                else scenario.sampling
            if sampling is False:
                sampling = None
            for point in scenario.points():
                overrides = dict(base)
                overrides.update(point)
                for workload in workloads:
                    job = SimJob(workload, scenario.kind, scale,
                                 config=overrides, sampling=sampling)
                    entries.append(PlanEntry(scenario.name, workload,
                                             job))
                    unique.setdefault(job.job_hash(), job)
        return SweepPlan(self, entries, list(unique.values()))


class PlanEntry:
    """One declared (scenario, workload, job) row of a plan."""

    __slots__ = ("scenario", "workload", "job")

    def __init__(self, scenario, workload, job):
        self.scenario = scenario
        self.workload = workload
        self.job = job


class SweepPlan:
    """Expanded sweep: declared rows plus the deduplicated job set."""

    def __init__(self, sweep, entries, jobs):
        self.sweep = sweep
        self.entries = entries
        self.jobs = jobs             # unique, in first-declared order

    @property
    def declared(self):
        return len(self.entries)

    @property
    def duplicates(self):
        return self.declared - len(self.jobs)

    def summary(self):
        return ("sweep %s: %d scenario(s), %d declared job(s), "
                "%d unique (%d shared)"
                % (self.sweep.name, len(self.sweep.scenarios),
                   self.declared, len(self.jobs), self.duplicates))


# ---------------------------------------------------------------------------
# Declaration checking
# ---------------------------------------------------------------------------
def _checked_overrides(mapping, owner, what):
    out = {}
    for key, value in flatten(dict(mapping or {})).items():
        spec = field(key)            # unknown keys raise with suggestion
        out[spec.key] = spec.coerce(value,
                                    source="%s %s" % (owner, what))
    return out


def _checked_axes(mapping, owner, what):
    out = {}
    for key, values in flatten(dict(mapping or {})).items():
        spec = field(key)
        if not isinstance(values, (list, tuple)) or not values:
            raise SweepError(
                "scenario %r: %s axis %s must be a non-empty list"
                % (owner, what, spec.key))
        out[spec.key] = [spec.coerce(value,
                                     source="%s %s axis" % (owner, what))
                         for value in values]
    return out


def _check_table(table, allowed, what):
    for key in table:
        if key not in allowed:
            raise SweepError("unknown %s key %r%s"
                             % (what, key, suggestion(key, allowed)))


# ---------------------------------------------------------------------------
# File loading
# ---------------------------------------------------------------------------
def flatten(mapping, prefix=""):
    """Flatten nested tables into dotted keys
    (``{"core": {"width": 8}}`` -> ``{"core.width": 8}``)."""
    out = {}
    for name, value in mapping.items():
        key = "%s%s" % (prefix, name)
        if isinstance(value, dict):
            out.update(flatten(value, key + "."))
        else:
            out[key] = value
    return out


def load_file(path):
    """Parse a sweep file into a dict: JSON when the name ends in
    ``.json``, TOML otherwise. A malformed file raises ``ValueError``
    naming ``path``."""
    with open(path, "rb") as handle:
        try:
            if str(path).endswith(".json"):
                return json.load(handle)
            return tomllib.load(handle)
        except ValueError as exc:      # incl. TOMLDecodeError, bad UTF-8
            raise ValueError("%s: %s" % (path, exc)) from None


def sweep_from_dict(doc):
    """Build a :class:`Sweep` from a parsed TOML/JSON document."""
    if not isinstance(doc, dict):
        raise SweepError("sweep document must be a table")
    head = doc.get("sweep", {})
    if not isinstance(head, dict):
        raise SweepError("[sweep] must be a table")
    _check_table(head, _SWEEP_KEYS, "[sweep]")
    raw_scenarios = doc.get("scenario", head.get("scenarios", []))
    extra = set(doc) - {"sweep", "scenario"}
    if extra:
        raise SweepError("unknown top-level table(s): %s"
                         % ", ".join(sorted(extra)))
    if not isinstance(raw_scenarios, list):
        raise SweepError("[[scenario]] must be an array of tables")
    scenarios = []
    for index, table in enumerate(raw_scenarios):
        if not isinstance(table, dict):
            raise SweepError("scenario #%d must be a table" % index)
        _check_table(table, _SCENARIO_KEYS, "[[scenario]]")
        if "kind" not in table:
            raise SweepError("scenario #%d (%r) is missing 'kind'"
                             % (index, table.get("name")))
        scenarios.append(Scenario(
            name=str(table.get("name", "scenario-%d" % index)),
            kind=table["kind"],
            workloads=tuple(table["workloads"])
            if "workloads" in table else None,
            scale=table.get("scale"),
            sampling=table.get("sampling"),
            set=table.get("set", {}),
            grid=table.get("grid", {}),
            zip=table.get("zip", {})))
    return Sweep(
        name=str(head.get("name", "sweep")),
        workloads=tuple(head.get("workloads", ())),
        scale=head.get("scale", 0.15),
        sampling=head.get("sampling"),
        jobs=head.get("jobs"),
        base=head.get("base", {}),
        scenarios=scenarios)


def load_sweep(path):
    """Parse a ``.toml``/``.json`` sweep file into a :class:`Sweep`."""
    try:
        doc = load_file(path)
    except OSError as exc:
        raise SweepError("cannot read sweep file: %s" % exc) from None
    except ValueError as exc:
        raise SweepError(str(exc)) from None
    return sweep_from_dict(doc)
