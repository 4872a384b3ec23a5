"""Seeded inputs for the four workloads, and the reference-engine oracle.

Every input is a pure function of ``--seed``: programs are generated as
source text by a seeded :class:`random.Random`, never by hypothesis, so
the same seed always yields byte-identical requests.  Expected outcomes
come from an untimed pass over the reference interpreter, the paper's
oracle; a fast path that disagrees with it counts as a failed request.

Mixes are stratified rather than drawn independently (each block of
requests carries exactly the configured shares), so two seeds differ in
which programs run and in what order, not in how much work a run does.
"""

from __future__ import annotations

import hashlib
import json
import random
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

# -- monitor stacks ------------------------------------------------------------

#: Stacks for generated programs.  Each one claims both annotation kinds
#: the generator emits (``{f}`` labels and ``{f(n)}`` headers), so every
#: program is lint-clean under every stack; they differ in report size
#: (counters, an indented trace, a call graph).
PROGRAM_STACKS = ("profile & trace", "count & trace", "coverage & trace", "callgraph")


def stack(tools: str) -> list:
    """Fresh monitor specs for a toolbox spelling such as ``"profile & trace"``."""
    from repro.toolbox import make_tool

    return [make_tool(name.strip()) for name in tools.split("&")]


# -- the program generator -----------------------------------------------------


def random_program(
    rng: random.Random, *, functions: int, depth: int, unbound: bool = False
) -> str:
    """One random ``L_lambda`` program, lint-clean by construction.

    ``functions`` letrec-bound functions ``f0..fk``, each ``lambda n.``
    with a body of nesting ``depth``: arithmetic, ``let``, conditionals
    on ``n`` and calls to later functions with an argument reduced to
    0 or 1, plus one self call on ``n - 1`` behind ``if n < 1``, so every
    program terminates in a few thousand steps.  The main expression
    calls every function directly.

    Why this shape: it exercises every layer a ``repro run`` request
    touches.  Parse and lint cost grow with the text, codegen with the
    number of functions and sites, and the run stays short so that the
    per-request pipeline, not evaluation, dominates.  The constraints
    keep the analyzer quiet: no unbound or unused names, every
    annotation claimed, every condition mentions ``n`` (no statically
    dead branch, ``REP501``), every function reachable from the main
    expression (no ``REP503``), and inner labels appear only inside
    label-annotated bodies, so a site is never nested in another
    monitor's site.

    ``unbound=True`` adds a reference to an unbound name: the analyzer
    rejects such a program with ``REP101`` (the serve lint gate's
    expected rejection).
    """
    names = [f"f{i}" for i in range(functions)]
    fresh = iter(range(1_000_000))
    bindings = []
    for i, name in enumerate(names):
        # f0 carries a label and f1 a header, so every stack has a site.
        header = i == 1 or (i > 1 and rng.random() < 0.5)
        scope = ["n"]

        def leaf() -> str:
            if rng.random() < 0.5:
                return rng.choice(scope)
            return str(rng.randint(0, 9))

        def expr(d: int) -> str:
            if d <= 0:
                return leaf()
            r = rng.random()
            if r < 0.35:
                op = rng.choice(("+", "-", "*", "+"))
                return f"({expr(d - 1)} {op} {expr(d - 1)})"
            if r < 0.55:
                cmp = rng.choice(("<", "<=", ">", "="))
                return (
                    f"(if n {cmp} {expr(d - 2)} then {expr(d - 1)} "
                    f"else {expr(d - 1)})"
                )
            if r < 0.7:
                var = f"v{next(fresh)}"
                bound = expr(d - 2)
                scope.append(var)
                body = expr(d - 1)
                scope.remove(var)
                return f"(let {var} = {bound} in {body})"
            if r < 0.8 and i + 1 < functions:
                callee = names[rng.randint(i + 1, functions - 1)]
                return f"({callee} ({expr(d - 2)} % 2))"
            if r < 0.92 and not header:
                return f"({{L{next(fresh)}}}: ({expr(d - 1)}))"
            return leaf()

        body = f"if n < 1 then {expr(2)} else ({expr(depth)} + {name} (n - 1))"
        annotation = f"{{{name}(n)}}" if header else f"{{{name}}}"
        bindings.append(f"{name} = lambda n. {annotation}: ({body})")
    main = " + ".join(f"{name} {rng.randint(2, 4)}" for name in names)
    if unbound:
        main += " + ghost"
    return "letrec " + "\nand ".join(bindings) + "\nin " + main


# -- outcomes and the oracle ---------------------------------------------------


def encode(index: int, answer: object, reports: Dict[str, object]) -> str:
    """A result as the batch and serve wire formats render it (one JSON line)."""
    from repro import RunResult

    record = RunResult(index=index, ok=True, answer=answer, reports=reports)
    return json.dumps(record.to_dict(), sort_keys=True)


def outcome(record: Dict[str, object]) -> Dict[str, object]:
    """The part of a rendered result the oracle fixes: answer and reports,
    or the error type of an expected rejection."""
    if record.get("ok"):
        return {
            "ok": True,
            "answer": record.get("answer"),
            "reports": record.get("reports", {}),
        }
    return {"ok": False, "error_type": record.get("error_type")}


def digest(value: object) -> str:
    return hashlib.sha256(
        json.dumps(value, sort_keys=True).encode("utf-8")
    ).hexdigest()[:20]


def _program(source):
    from repro import parse

    return parse(source) if isinstance(source, str) else source


def reference_outcome(source, tools: str) -> Dict[str, object]:
    """Answer and rendered reports from the reference interpreter
    (``source`` is program text or an already-parsed program)."""
    from repro import RunConfig, run_monitored, strict

    result = run_monitored(
        strict, _program(source), stack(tools), config=RunConfig(engine="reference")
    )
    return outcome(json.loads(encode(0, result.answer, result.reports())))


def lint_findings(source, tools: str, *, flow: bool = False) -> List[str]:
    """Diagnostic codes the analyzer reports for ``source`` under ``tools``."""
    from repro import analyze, strict

    report = analyze(_program(source), stack(tools), language=strict, flow=flow)
    return [d.code for d in report.diagnostics]


def _blocks(rng: random.Random, block: Sequence, count: int) -> Iterator:
    """``count`` items: shuffled copies of ``block`` laid end to end."""
    produced = 0
    while produced < count:
        items = list(block)
        rng.shuffle(items)
        for item in items[: count - produced]:
            yield item
        produced += len(items)


# -- oneshot -------------------------------------------------------------------

#: (engine, optimize) per block of eight requests: codegen:reference 3:1,
#: optimize none:flow 1:1 within each engine.
ONESHOT_CONFIGS = [("codegen", "none")] * 3 + [("codegen", "flow")] * 3 + [
    ("reference", "none"),
    ("reference", "flow"),
]

#: Program size for ``oneshot``: large enough that parse, lint and the
#: codegen compile are each milliseconds, as for a hand-written script.
ONESHOT_SHAPE = {"functions": 6, "depth": 6}


def oneshot_requests(seed: int, count: int) -> List[Dict[str, str]]:
    """``count`` never-repeated requests: program text, stack, engine, level."""
    rng = random.Random(f"oneshot:{seed}")
    configs = _blocks(rng, ONESHOT_CONFIGS, count)
    stacks = _blocks(rng, PROGRAM_STACKS, count)
    requests = []
    for engine, optimize in configs:
        requests.append(
            {
                "text": random_program(rng, **ONESHOT_SHAPE),
                "tools": next(stacks),
                "engine": engine,
                "optimize": optimize,
            }
        )
    return requests


def oneshot_oracle(request: Dict[str, str]) -> Tuple[str, List[str]]:
    """The digest of the expected outcome, and any lint findings.

    A generated program must be lint-clean under its stack (with the
    flow pass when the request runs ``optimize="flow"``); a finding
    means the generator broke its contract, and the request fails.
    """
    program = _program(request["text"])
    tools = request["tools"]
    findings = lint_findings(program, tools, flow=request["optimize"] == "flow")
    return digest(reference_outcome(program, tools)), findings


# -- batch_hot -----------------------------------------------------------------

#: Figure 11's program: a loop of fixed work in which ``hits`` iterations
#: pass through a traced helper, so monitoring activity varies while the
#: program's own work stays constant.
FIG11_LOOP = """letrec traced = lambda x. {traced(x)}: (x + 1)
and plain = lambda x. x + 1
and loop = lambda i. lambda acc.
    if i = 0 then acc
    else if i <= %d then loop (i - 1) (traced acc) else loop (i - 1) (plain acc)
in loop %d 0"""

#: The paper's fib with a labelled body (profiler, counter, call graph).
FIB_LABEL = (
    "letrec fib = lambda n. {fib}: if n < 2 then n "
    "else fib (n - 1) + fib (n - 2) in fib %d"
)

#: fib with a function-header body (the tracer prints every call).
FIB_HEADER = (
    "letrec fib = lambda n. {fib(n)}: if n < 2 then n "
    "else fib (n - 1) + fib (n - 2) in fib %d"
)

#: The twelve warm (program, stack) pairs of ``batch_hot``.  Figure 11
#: loops sweep traced hits 0..1000 under the tracer, so hook cost shows
#: against fixed work; fib under four monitors varies report size from a
#: few counters to a 55 KB trace, so encoding shows.
BATCH_PAIRS: List[Tuple[str, str]] = [
    (FIG11_LOOP % (hits, 1000), "trace") for hits in (0, 200, 400, 600, 800, 1000)
] + [
    (FIB_LABEL % 16, "profile"),
    (FIB_LABEL % 14, "count"),
    (FIB_HEADER % 12, "trace"),
    (FIB_HEADER % 9, "trace"),
    (FIB_LABEL % 15, "callgraph"),
    (FIB_LABEL % 12, "profile"),
]

#: Pairs that also run with ``RunConfig(metrics=RunMetrics())`` in every
#: chunk: a quarter of all runs, spread over loop, profile, trace and
#: call-graph shapes.  Metrics-on runs take today's uncached counted path.
BATCH_METRICS_PAIRS = (3, 6, 8, 10)

#: One chunk of 64 runs: every pair four times without metrics, the
#: metrics pairs four times with.
BATCH_CHUNK = 4 * (
    [(i, False) for i in range(len(BATCH_PAIRS))]
    + [(i, True) for i in BATCH_METRICS_PAIRS]
)


def batch_chunks(seed: int, count: int) -> List[List[Tuple[int, bool]]]:
    """``count`` chunks, each :data:`BATCH_CHUNK` in a seeded order."""
    rng = random.Random(f"batch_hot:{seed}")
    chunks = []
    for _ in range(count):
        chunk = list(BATCH_CHUNK)
        rng.shuffle(chunk)
        chunks.append(chunk)
    return chunks


# -- serve_open ----------------------------------------------------------------

#: Distinct program texts the Zipf draw ranges over.  Routed by text
#: hash to two workers, each shard holds ~80 programs against a 64-entry
#: cache, so the tail of the distribution misses.
SERVE_PROGRAMS = 160

#: Small programs: the daemon's per-request costs (socket, IPC, parse,
#: the lint gate, cache lookup) dominate, not evaluation.
SERVE_SHAPE = {"functions": 3, "depth": 3}

#: Distinct programs the lint gate rejects, and per block of 100 requests
#: how many are such programs or malformed lines.
SERVE_REJECT_PROGRAMS = 8
SERVE_REJECTS_PER_100 = 2
SERVE_MALFORMED_PER_100 = 1

#: Programs every worker compiles at start-up (``--prewarm``): the most
#: popular texts of the draw.
SERVE_PREWARM = 32

#: Requests in a seed's schedule: 30 s at 160 req/s.  A run sends a
#: prefix; a longer one wraps around.
SERVE_SCHEDULE = 4800


def serve_corpus(seed: int) -> Dict[str, object]:
    """The programs of ``serve_open``, and the ones its lint gate rejects."""
    rng = random.Random(f"serve_open:{seed}")
    stacks = _blocks(rng, PROGRAM_STACKS, SERVE_PROGRAMS + SERVE_REJECT_PROGRAMS)
    programs = [
        {"text": random_program(rng, **SERVE_SHAPE), "tools": next(stacks)}
        for _ in range(SERVE_PROGRAMS)
    ]
    rejects = [
        {"text": random_program(rng, unbound=True, **SERVE_SHAPE), "tools": next(stacks)}
        for _ in range(SERVE_REJECT_PROGRAMS)
    ]
    return {"programs": programs, "rejects": rejects}


def serve_schedule(seed: int) -> List[Tuple[str, int]]:
    """The open-loop schedule: ``(kind, index)`` per request, in send order.

    ``kind`` is ``"ok"`` (index into the programs, Zipf-drawn with
    exponent 1), ``"reject"`` (index into the rejected programs) or
    ``"malformed"``.  Requests are sent evenly spaced at the serve rate.
    """
    rng = random.Random(f"serve_open:schedule:{seed}")
    weights = [1.0 / (rank + 1) for rank in range(SERVE_PROGRAMS)]
    kinds = _blocks(
        rng,
        ["reject"] * SERVE_REJECTS_PER_100
        + ["malformed"] * SERVE_MALFORMED_PER_100
        + ["ok"] * (100 - SERVE_REJECTS_PER_100 - SERVE_MALFORMED_PER_100),
        SERVE_SCHEDULE,
    )
    schedule = []
    for kind in kinds:
        if kind == "ok":
            index = rng.choices(range(SERVE_PROGRAMS), weights)[0]
        elif kind == "reject":
            index = rng.randrange(SERVE_REJECT_PROGRAMS)
        else:
            index = 0
        schedule.append((kind, index))
    return schedule


def serve_oracle(corpus: Dict[str, object]) -> Dict[str, object]:
    """Expected outcomes: reference results, and the rejections' error types."""
    programs = corpus["programs"]
    for item in corpus["rejects"]:
        if "REP101" not in lint_findings(item["text"], item["tools"]):
            raise AssertionError("a serve reject program is not lint-rejected")
    for item in programs:
        findings = lint_findings(item["text"], item["tools"])
        if findings:
            raise AssertionError(f"serve program is not lint-clean: {findings}")
    return {
        "ok": [reference_outcome(p["text"], p["tools"]) for p in programs],
        "reject": {"ok": False, "error_type": "StaticAnalysisError"},
        "malformed": {"ok": False, "error_type": "ProtocolError"},
    }


# -- record_replay -------------------------------------------------------------

#: fib with a traced body and a labelled base case, and a Figure 11 loop
#: with a labelled loop body: every fold stack finds sites to claim.
RECORD_FIB = (
    "letrec fib = lambda n. {fib(n)}: if n < 2 then ({leaf}: n) "
    "else fib (n - 1) + fib (n - 2) in fib %d"
)
RECORD_LOOP = """letrec traced = lambda x. {traced(x)}: (x + 1)
and plain = lambda x. x + 1
and loop = lambda i. lambda acc. {loop}: (
    if i = 0 then acc
    else if i <= %d then loop (i - 1) (traced acc) else loop (i - 1) (plain acc))
in loop %d 0"""

#: Recorded programs: fib 9..12 and Figure 11 loops at 0..100% traced
#: hits, so trace lengths span ~300 to ~1,900 events.
RECORD_PROGRAMS = [RECORD_FIB % n for n in (9, 10, 11, 12)] + [
    RECORD_LOOP % (hits, 300) for hits in (0, 75, 150, 225, 300)
]

#: Stacks folded over every trace (each claims labels and headers).
RECORD_STACKS = ("profile & trace", "count & trace", "callgraph")

#: Backward seeks per replay session.
RECORD_SEEKS = 8


def record_cycles(seed: int, count: int) -> List[Dict[str, object]]:
    """``count`` cycles: a program, the stack replayed, and seek targets.

    Seek targets are fractions of the trace length in decreasing order
    (the trace length is only known once it is recorded).
    """
    rng = random.Random(f"record_replay:{seed}")
    programs = _blocks(rng, range(len(RECORD_PROGRAMS)), count)
    cycles = []
    for program in programs:
        fractions = sorted((rng.random() for _ in range(RECORD_SEEKS)), reverse=True)
        cycles.append(
            {
                "program": program,
                "replay_stack": rng.randrange(len(RECORD_STACKS)),
                "seeks": fractions,
            }
        )
    return cycles


def record_oracle() -> List[List[Dict[str, object]]]:
    """Reference outcomes per recorded program, per fold stack."""
    return [
        [reference_outcome(text, tools) for tools in RECORD_STACKS]
        for text in RECORD_PROGRAMS
    ]


def batch_oracle() -> List[Dict[str, object]]:
    return [reference_outcome(text, tools) for text, tools in BATCH_PAIRS]


def first_difference(expected: object, actual: object) -> Optional[str]:
    """A short description of a mismatch, for the failure log."""
    if expected == actual:
        return None
    return f"expected {json.dumps(expected)[:120]} got {json.dumps(actual)[:120]}"
