"""One search in a fresh interpreter: the unit the benchmark times.

Usage: ``python3 child.py SPEC_JSON``.  The spec names the workload
configuration, the seed, the trial budget, the run's private directory and
whether to trace.  The child drives the same library path as
``repro search`` (``AutoFPProblem.from_registry`` -> ``baseline_accuracy``
-> ``SearchSession.run``) and writes ``result.json`` into its directory:
every record's (pipeline spec, fidelity, accuracy, failure kind), the
monotonic time of the first proposal, set-up phase times and, when traced,
the per-layer metrics.  The parent times the interpreter from spawn to
exit, so import and set-up count.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path


def clock() -> float:
    """System-wide monotonic clock, comparable with the parent's."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def main(spec_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text(encoding="utf-8"))
    run_dir = Path(spec["run_dir"])
    setup = {}

    start = clock()
    import repro.cli  # noqa: F401  (the import a CLI user pays)
    setup["setup.import_s"] = clock() - start

    tracer = None
    if spec["trace"]:
        from layers import LayerTracer

        tracer = LayerTracer()
        tracer.install()

    from repro.core.context import ExecutionContext
    from repro.core.problem import AutoFPProblem
    from repro.preprocessing.registry import DEFAULT_PREPROCESSOR_NAMES
    from repro.search import make_search_algorithm
    from repro.search.session import SearchSession

    options = dict(spec["context"])
    checkpoint_path = None
    if spec["durable"]:
        options["cache_dir"] = str(run_dir / "evalcache")
        checkpoint_path = run_dir / "checkpoint.json"
    context = ExecutionContext(**options)
    seed = spec["seed"]

    start = clock()
    problem = AutoFPProblem.from_registry(
        spec["dataset"], spec["model"], scale=spec["scale"],
        random_state=seed, context=context,
    )
    setup["setup.problem_s"] = clock() - start
    start = clock()
    baseline = problem.baseline_accuracy()
    setup["setup.baseline_s"] = clock() - start

    first_proposal: list[float] = []
    batches = [0]

    def on_batch(session, iteration, tasks) -> None:
        if not first_proposal:
            first_proposal.append(clock())
        batches[0] += 1

    session = SearchSession(
        problem, make_search_algorithm(spec["algorithm"], random_state=seed),
        context=context, on_batch=on_batch,
        checkpoint_path=checkpoint_path,
        checkpoint_every=spec["checkpoint_every"] if spec["durable"] else None,
    )
    session.result.baseline_accuracy = baseline
    result = session.run(max_trials=spec["trials"])
    if problem.evaluator.engine is not None:
        problem.evaluator.engine.close()

    document = {
        "first_proposal": first_proposal[0] if first_proposal else None,
        "setup": setup,
        "records": [[repr(trial.pipeline.spec()), repr(trial.fidelity),
                     repr(trial.accuracy), trial.failure_kind]
                    for trial in result.trials],
    }
    if tracer is not None:
        document["layers"] = tracer.metrics(
            evaluator=problem.evaluator, batches=batches[0],
            checkpoint_path=checkpoint_path,
            cache_dir=options.get("cache_dir"),
            preprocessor_names=DEFAULT_PREPROCESSOR_NAMES,
        )
    (run_dir / "result.json").write_text(json.dumps(document),
                                         encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
