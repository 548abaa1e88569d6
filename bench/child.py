"""Child-process side of the benchmark.

``python bench/child.py setup N SEED GAMMA SIGMA STRICT``
    Times ``import lgadmm``, ``generate_instance``, ``build_problem`` and
    ``validate_config`` for one workload instance in a fresh interpreter
    and prints the four durations as JSON.

``python bench/child.py cli SIDECAR TRACE -- ARGS...``
    Runs ``lgadmm.cli.main(ARGS)`` and writes SIDECAR, a JSON file with the
    exit code, the iteration count of every solve made in this process,
    where ``lgadmm`` was imported from and, when TRACE is 1, the recorded
    spans. The process exits with the CLI's exit code.

Both are started by ``bench/run.py`` with ``PYTHONPATH`` pointing at the
repository's ``src``.
"""

from __future__ import annotations

import json
import sys
import time


def setup_probe(n: int, seed: int, gamma: float, sigma: float,
                strict: bool) -> dict:
    clock = time.perf_counter
    t0 = clock()
    import lgadmm
    t1 = clock()
    instance = lgadmm.generate_instance(n, seed)
    t2 = clock()
    problem = lgadmm.build_problem(instance)
    t3 = clock()
    config = lgadmm.SolverConfig(
        rho=1.0, gamma=gamma,
        proximal_metrics=lgadmm.default_metrics(instance, scale=sigma),
        strict_theory_mode=strict)
    t4 = clock()
    lgadmm.validate_config(problem, config)
    t5 = clock()
    return {"import": t1 - t0, "generate_instance": t2 - t1,
            "build_problem": t3 - t2, "validate_config": t5 - t4}


def run_cli(sidecar: str, trace: bool, argv: list[str]) -> int:
    import lgadmm
    import lgadmm.cli as cli

    iterations: list[int] = []
    counted_solve = cli.solve

    def solve(*args, **kwargs):
        result = counted_solve(*args, **kwargs)
        iterations.append(result.iterations)
        return result

    cli.solve = solve
    tracer = None
    if trace:
        from tracing import Tracer, install
        tracer = Tracer()
        install(tracer, lgadmm)
    code = cli.main(argv)
    payload = {"exit_code": code, "solve_iterations": iterations,
               "package_file": lgadmm.__file__}
    if tracer is not None:
        tracer.restore()
        payload["trace"] = tracer.dump()
    with open(sidecar, "w", encoding="utf-8") as handle:
        json.dump(payload, handle)
    return code


def main(argv: list[str]) -> int:
    if argv[:1] == ["setup"] and len(argv) == 6:
        n, seed, gamma, sigma, strict = argv[1:]
        print(json.dumps(setup_probe(int(n), int(seed), float(gamma),
                                     float(sigma), strict == "1")))
        return 0
    if argv[:1] == ["cli"] and len(argv) >= 4 and argv[3] == "--":
        return run_cli(argv[1], argv[2] == "1", argv[4:])
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
