"""``RunConfig``: one frozen value for every run option the system takes.

The options controlling a single run — ``engine``, ``fault_policy``,
``max_steps``, ``metrics``, ``answers``,
``check_disjointness``, ``timeout``, ``lint`` and the record/replay
settings — have one spelling: build a :class:`RunConfig` once and pass it
as ``config=`` to ``run_monitored``, a language's ``evaluate``, the
toolbox ``evaluate``, ``Session.evaluate``, ``debug``, ``record``, a
``RunRequest`` or a batch runner, then reuse it for a thousand requests.
Every entry point admits its config through :meth:`RunConfig.checked`
(``None`` means the defaults).

``timeout`` is a per-run wall-clock budget in seconds, enforced
cooperatively by the trampoline (see
:func:`repro.semantics.trampoline.trampoline`) and used by the batch
runtime for per-request timeouts.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from functools import lru_cache
from time import perf_counter
from typing import Callable, Dict, FrozenSet, NamedTuple, Optional, Tuple, Union

from repro.monitoring.faults import FAULT_POLICIES, check_fault_policy
from repro.observability.metrics import RunMetrics
from repro.semantics.answers import AnswerAlgebra, STANDARD_ANSWERS


@dataclass(frozen=True)
class RunConfig:
    """The options governing one (or many identical) monitored runs.

    Frozen so a config can be shared across threads and reused as a
    default for a whole batch without aliasing surprises.  Note that
    ``metrics`` is a *mutable accumulator*: sharing one config across
    runs shares the counters too, which is why the batch runner swaps
    in a fresh ``RunMetrics`` per request
    (:meth:`with_fresh_metrics`).  How each field is checked, spelled on
    the command line and admitted from a record is its row of
    :data:`OPTIONS`.
    """

    engine: str = "reference"
    fault_policy: str = "propagate"
    max_steps: Optional[int] = None
    metrics: Optional[RunMetrics] = None
    answers: AnswerAlgebra = STANDARD_ANSWERS
    check_disjointness: bool = True
    timeout: Optional[float] = None
    #: Static-analysis gate: "off" skips the analyzer, "warn" attaches
    #: diagnostics to the result, "error" rejects failing programs at
    #: admission with a StaticAnalysisError (see repro.analysis).
    lint: str = "off"
    #: Execution mode: "inline" runs monitors live (the historical
    #: behavior); "record" runs the program once with the trace recorder
    #: instead, writing an event trace under ``record_dir`` and returning
    #: the trace path on the result — fold stacks over it later with
    #: :func:`repro.tracing.analyze_trace`.
    mode: str = "inline"
    #: Directory record-mode traces are written to (one file per run).
    record_dir: Optional[str] = None
    #: Deterministic activation sampling for record mode: the fraction of
    #: activations kept (1.0 = everything), decided per (seed, site,
    #: occurrence) — never wall clock — so traces are seed-reproducible.
    sample_rate: float = 1.0
    #: The sampling seed (see :func:`repro.tracing.sample_includes`).
    trace_seed: int = 0
    #: Replay checkpoint cadence: when a recorded trace is opened for
    #: time travel (``repro replay``, :class:`repro.replay.ReplaySession`)
    #: the fold snapshots its monitor-state vector every this-many events,
    #: so seeking to event *k* replays at most ``checkpoint_interval``
    #: events from the nearest checkpoint instead of all *k* from the
    #: start.  Smaller = faster seeks, more checkpoint memory.
    checkpoint_interval: int = 512
    #: Static-optimization level: "none" (default) changes nothing;
    #: "flow" runs the claim-flow analysis (:mod:`repro.analysis.flow`)
    #: and lets consumers exploit it — codegen erases hooks at provably
    #: unreachable sites, record mode skips tracing them, and the lint
    #: gate includes the ``REP5xx`` pass.  Observable behavior (reports,
    #: metrics, fault records) is property-tested identical either way.
    optimize: str = "none"

    def validate(self) -> "RunConfig":
        """Check every field against its row of :data:`OPTIONS`; returns ``self``.

        A field still holding its default object is skipped, so checking
        the defaults costs one ``is`` per row.
        """
        for name, option in OPTIONS.items():
            value = getattr(self, name)
            if value is not _DEFAULTS[name]:
                option.check_value(value)
        return self

    @classmethod
    def checked(cls, config: "Optional[RunConfig]") -> "RunConfig":
        """Admit an entry point's ``config=`` argument.

        ``None`` means the defaults; anything but a ``RunConfig`` is a
        ``TypeError``; the result is validated.
        """
        if config is None:
            return cls().validate()
        if not isinstance(config, cls):
            raise TypeError(
                f"config= expects a RunConfig, got {type(config).__name__}"
            )
        return config.validate()

    def deadline(self) -> Optional[float]:
        """The ``perf_counter`` deadline this run must finish by, or ``None``."""
        if self.timeout is None:
            return None
        return perf_counter() + self.timeout

    def with_fresh_metrics(self) -> "RunConfig":
        """A copy whose ``metrics`` is a new accumulator (if metrics are on).

        The batch runner calls this per request so no two runs share
        counters (per-request isolation).
        """
        if self.metrics is None:
            return self
        return replace(self, metrics=RunMetrics())

    def scalars(self) -> Dict[str, object]:
        """The config's ``scalar`` fields, which ``ProcessPoolRunner`` ships
        to workers and :meth:`from_scalars` rebuilds a config from; each
        worker supplies its own ``metrics`` and ``answers``."""
        return {name: getattr(self, name) for name in _SCALARS}

    @classmethod
    def from_scalars(cls, data: Dict[str, object]) -> "RunConfig":
        """Rebuild a validated config from :meth:`scalars` output."""
        unknown = set(data) - set(_SCALARS)
        if unknown:
            raise ValueError(f"unknown run config scalar(s): {sorted(unknown)}")
        return cls(**data).validate()  # type: ignore[arg-type]

    def overlay(self, record: Dict[str, object], surface: str) -> "RunConfig":
        """This runner's config with a record's option keys laid over it.

        Each key's row of :data:`OPTIONS` must let a ``surface`` (``"batch"``
        or ``"serve"``) record set it, each value is checked, and
        a row's ``tighter`` rule keeps a record from loosening the runner's
        lint gate, timeout or step budget.  ``ValueError`` names the key.
        """
        for key, value in record.items():
            option = OPTIONS.get(key)
            if option is None or surface not in option.records:
                raise ValueError(
                    f"a {surface} record may not set {key!r}: "
                    "the runner's own configuration decides it"
                )
            if value is not _DEFAULTS[key]:
                option.check_value(value)
            runner = getattr(self, key)
            if option.tighter is not None and not option.tighter(value, runner):
                raise ValueError(
                    f"{key} {value!r} would loosen the runner's {key} {runner!r}"
                )
        return replace(self, **record)


class Option(NamedTuple):
    """One row of :data:`OPTIONS`: how a ``RunConfig`` field is checked,
    spelled on the command line and admitted from a record.

    ``check`` returns what a bad value must be instead (the words after
    "must be") or ``None``; with no ``check``, a value must be one of the
    ``choices``.  The subcommands in ``commands`` take ``flag`` (a switch
    if ``type`` is ``bool``); a ``choices`` or ``help`` kept in a module
    this one must not import is a function returning it.  ``records``
    names the surfaces (``"batch"``, ``"serve"``) whose records may set the
    field, ``tighter(value, runner)`` whether a record's value is no looser
    than the runner's.
    """

    name: str
    check: Optional[Callable[[object], Optional[str]]] = None
    choices: Union[Tuple[str, ...], Callable[[], Tuple[str, ...]], None] = None
    flag: Optional[str] = None
    commands: FrozenSet[str] = frozenset()
    help: Union[str, Callable[[], str]] = ""
    type: Optional[type] = None
    metavar: Optional[str] = None
    records: FrozenSet[str] = frozenset()
    tighter: Optional[Callable[[object, object], bool]] = None
    scalar: bool = True

    def check_value(self, value: object, name: Optional[str] = None) -> None:
        """Raise ``ValueError`` naming ``name`` (the field by default) when
        ``value`` is bad; the engine, fault-policy and lint checks raise
        their own modules' errors."""
        if self.check is not None:
            problem = self.check(value)
        elif self.choices is None or value in self.choices:
            return
        else:
            problem = " or ".join(map(repr, self.choices))
        if problem is not None:
            raise ValueError(f"{name or self.name} must be {problem}, got {value!r}")


# Records set fields straight from JSON, so the checks test types too: a
# bool is not a budget, and a fractional step budget would split the engines.


def _is_int(value: object) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value: object) -> bool:
    return _is_int(value) or isinstance(value, float)


def _count(value: object) -> Optional[str]:
    return None if _is_int(value) and value > 0 else "a positive integer"


def _seconds(value: object) -> Optional[str]:
    if not _is_number(value):
        return "a number of seconds"
    return None if value > 0 else "positive"


def _rate(value: object) -> Optional[str]:
    if not _is_number(value):
        return "a number"
    return None if 0.0 <= value <= 1.0 else "within [0, 1]"


def _path(value: object) -> Optional[str]:
    fine = isinstance(value, str) or hasattr(value, "__fspath__")
    return None if fine else "a directory path"


def _at_most(value: object, runner: object) -> bool:
    return runner is None or (value is not None and value <= runner)


# The engine and lint rows read modules that importing ``RunConfig`` must
# not load (the engines, the analyzer), so they import them on first use;
# cached, because an import statement costs more than the check.


@lru_cache(maxsize=None)
def _engines():
    from repro.languages import base

    return base


@lru_cache(maxsize=None)
def _linter():
    from repro.analysis import diagnostics

    return diagnostics


def _lint_at_least(value: object, runner: object) -> bool:
    levels = _linter().LINT_LEVELS
    return levels.index(value) >= levels.index(runner)


#: The subcommands that evaluate a program and take the shared run flags.
#: ``replay`` evaluates nothing: it takes only the flags its session reads.
_RUNS = frozenset("run trace profile session debug batch record serve".split())

#: The record surfaces: ``repro batch`` records and ``repro serve`` requests.
_RECORDS = frozenset(("batch", "serve"))

_ROWS = (
    Option("mode", choices=("inline", "record"), records=_RECORDS,
           flag="--mode", commands=frozenset({"batch"}),
           help="default execution mode for requests: inline runs monitors "
           "live, record writes an event trace per request (see --record-dir)"),
    # Not from a serve request: the daemon decides where traces go.
    Option("record_dir", check=_path, records=frozenset({"batch"}),
           flag="--record-dir", commands=frozenset({"batch", "serve", "debug"}),
           metavar="DIR",
           help="directory record-mode requests write their traces into; "
           "debug records its session there, for 'repro replay'"),
    Option("sample_rate", check=_rate, records=_RECORDS,
           flag="--sample", commands=frozenset({"record"}), type=float,
           metavar="RATE",
           help="deterministic activation sampling rate in [0, 1] "
           "(default 1.0 = record everything)"),
    Option("trace_seed", records=_RECORDS,
           check=lambda value: None if _is_int(value) else "an integer",
           flag="--seed", commands=frozenset({"record"}), type=int, metavar="SEED",
           help="sampling seed (same seed + program => byte-identical trace)"),
    Option("max_steps", check=_count, records=_RECORDS,
           tighter=_at_most, flag="--max-steps", commands=_RUNS, type=int,
           help="evaluation step budget"),
    Option("engine", check=lambda value: _engines().check_engine(value),
           choices=lambda: _engines().ENGINES, records=_RECORDS,
           flag="--engine", commands=_RUNS,
           help=lambda: _engines().engine_help()),
    Option("fault_policy", check=check_fault_policy, choices=FAULT_POLICIES,
           records=_RECORDS, flag="--fault-policy",
           commands=_RUNS | {"analyze", "replay"},
           help="what a monitor exception does: propagate aborts the run "
           "(default), quarantine disables the faulting monitor and keeps "
           "the standard answer, log records faults and keeps monitoring"),
    Option("timeout", check=_seconds, records=_RECORDS,
           tighter=_at_most, flag="--timeout", commands=_RUNS, type=float,
           metavar="SECONDS",
           help="wall-clock budget per evaluation (cooperative)"),
    # Only a replay session reads the interval, and no record replays.
    Option("checkpoint_interval", check=_count,
           flag="--checkpoint-interval", commands=frozenset({"replay"}),
           type=int, metavar="EVENTS",
           help="replay checkpoint spacing in trace events (default 512; "
           "smaller = faster backward seeks, more checkpoints)"),
    Option("lint", check=lambda value: _linter().check_lint_level(value),
           choices=lambda: _linter().LINT_LEVELS, records=_RECORDS,
           tighter=_lint_at_least, flag="--lint", commands=_RUNS,
           help="run the static analyzer before executing: warn prints "
           "diagnostics, error rejects programs with error-severity findings"),
    Option("optimize", choices=("none", "flow"), records=_RECORDS,
           flag="--optimize", commands=_RUNS | {"compile"},
           help="static optimization level: flow runs the claim-flow analysis "
           "and erases monitor hooks at provably-unreachable sites (codegen "
           "engine) — observable behavior is unchanged"),
    # Serve streams telemetry per worker instead (its --trace-dir).
    Option("metrics", scalar=False,
           flag="--metrics", commands=(_RUNS - {"serve"}) | {"analyze"},
           type=bool,
           help="collect run telemetry and print a metrics summary after the "
           "answer"),
    # An answer algebra carries functions, which cannot cross a process.
    Option("answers", scalar=False),
    # A record may not skip the §6 disjointness check.
    Option("check_disjointness"),
)

#: One row per ``RunConfig`` field, in the order subcommands declare the
#: flags: the one place an option's check, spelling and record admission
#: are decided, read by ``validate``, the CLI, :meth:`RunConfig.overlay`
#: and the process-pool wire format.
OPTIONS: Dict[str, Option] = {option.name: option for option in _ROWS}

#: A field holding its default object is valid by construction: neither
#: ``validate`` nor record admission checks it.
_DEFAULTS = {field.name: field.default for field in fields(RunConfig)}

#: The JSON-safe fields: everything a run option can be on the far side of
#: a process boundary.
_SCALARS = tuple(name for name, option in OPTIONS.items() if option.scalar)


__all__ = ["OPTIONS", "Option", "RunConfig"]
