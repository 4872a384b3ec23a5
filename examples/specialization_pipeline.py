"""Figure 10: the three levels of specialization, end to end.

Level 1 — instantiate the parameterized interpreter with a monitor spec
          (a concrete instrumented *interpreter*);
Level 2 — specialize that interpreter with respect to a source program
          (an instrumented *program*: residual Python source you can
          read);
Level 3 — specialize the instrumented program with respect to partial
          input (a *specialized program*, via the online partial
          evaluator).

Run:  python examples/specialization_pipeline.py
"""

import time

from repro import parse, pretty, strict
from repro.monitoring import run_monitored
from repro.monitors import TracerMonitor
from repro.partial_eval.codegen import generate_program
from repro.partial_eval.online import specialize
from repro.runtime import RunConfig
from repro.syntax.ast import Const
from repro.syntax.transform import substitute

program = parse(
    """
    letrec pow = lambda n. lambda x.
        {pow(n, x)}: if n = 0 then 1 else x * (pow (n - 1) x)
    in pow 3 (y + 1)
    """
)
tracer = TracerMonitor()

# ------------------------------------------------- level 1: monitored interpreter
print("LEVEL 1 - the instrumented interpreter")
closed = substitute(program, {"y": Const(4)})
result = run_monitored(strict, closed, tracer)
print("answer:", result.answer)
print(result.report(), end="")

# ------------------------------------------------- level 2: instrumented program
print("\nLEVEL 2 - the instrumented program (residual Python source)")
generated = generate_program(closed, tracer)
print(generated.source)
answer, _ = generated.run()
print("answer (residual):", answer)
print("trace parity with interpreter:", generated.report(tracer) == result.report())
print("instrumented sites:", generated.site_count)
codegen = run_monitored(strict, closed, tracer, config=RunConfig(engine="codegen"))
print("the codegen engine runs it:", codegen.report() == result.report())

# ------------------------------------------------- level 3: partial input
print("\nLEVEL 3 - the specialized program (static exponent, dynamic base)")
spec = specialize(program)  # y is free, hence dynamic; the exponent 3 is static
print("residual program:", pretty(spec.residual))
print("stats:", spec.stats)
spec_closed = substitute(spec.residual, {"y": Const(4)})
spec_result = run_monitored(strict, spec_closed, tracer)
print("answer:", spec_result.answer)
# The monitoring *actions* are preserved: the annotations survive
# specialization, fire the same number of times in the same order.  (The
# tracer's rendered argument values differ, since specialization folded
# the variables `n` and `x` away — monitoring a specialized program shows
# the specialized world.)
original_hits = result.report().count("receives")
specialized_hits = spec_result.report().count("receives")
print(f"trace events: original={original_hits}, specialized={specialized_hits}")

# ----------------------------------------------------------- a timing appetizer
print("\nTiming appetizer (see benchmarks/ for the real harness):")
fib = parse("letrec fib = lambda n. if n < 2 then n else fib (n-1) + fib (n-2) in fib 18")
start = time.perf_counter()
strict.evaluate(fib)
interp_time = time.perf_counter() - start
residual = generate_program(fib)
start = time.perf_counter()
residual.evaluate()
residual_time = time.perf_counter() - start
print(f"interpreter: {interp_time * 1000:.1f} ms")
print(f"residual program: {residual_time * 1000:.1f} ms "
      f"({interp_time / residual_time:.0f}x faster)")
