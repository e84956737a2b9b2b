"""One fresh benchmark process.

``python3 bench/child.py SPEC.json`` reads a spec written by ``run.py`` and
does one of three things:

``run``
    Import ``caponplus``, write and build the run config, then call
    ``caponplus.cli.main(["run", cfg, "--seed", S, "--threads", N])``.
    With ``trace: "spans"`` every public function listed in ``install_tracer`` is
    wrapped where its caller binds it and one span is kept in memory per
    call; the spans are written out once the run has ended.  With
    ``trace: "count"`` only ``build_context`` calls are counted, in shared
    memory, so calls made inside forked pool workers are seen too.
``micro``
    Time direct calls into single layers (the micro table).

The process reports its own timestamps (``time.monotonic``, which on Linux
is one clock for every process) so that ``run.py`` can split the run into
set-up and ``cli.main`` time.
"""

import json
import sys
import time


def cholesky_work(m: int) -> tuple[float, float]:
    """Computed (flops, bytes) of one complex Cholesky of an M x M matrix: 4/3 M^3."""
    return 4.0 * m**3 / 3.0, 32.0 * m * m


def scm_work(t: int, m: int) -> tuple[float, float]:
    """Computed (flops, bytes) of one T-snapshot, M-antenna sample covariance: 8 T M^2."""
    return 8.0 * t * m * m, 16.0 * (t * m + m * m)


class Tracer:
    """Spans ``[name, start_ns, end_ns, parent_index, work]`` kept in memory.

    Spans are appended when a call starts, so a parent always precedes its
    children in the list.
    """

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, owner, attr: str, name: str, work=None) -> None:
        fn = getattr(owner, attr)
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        def traced(*args, **kwargs):
            idx = len(spans)
            span = [name, clock(), 0, stack[-1] if stack else -1,
                    work(*args) if work else 0]
            spans.append(span)
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()

        traced.__wrapped__ = fn
        setattr(owner, attr, traced)


def install_tracer() -> Tracer:
    from caponplus import arraymodel, beamformers, cli, montecarlo, signalsim

    chol = lambda a: cholesky_work(a.shape[0])[0]  # noqa: E731
    scm = lambda batch: scm_work(*batch.snapshots.shape)[0]  # noqa: E731
    tracer = Tracer()
    # (module or class, attribute bound there, span name, work per call)
    for owner, attr, name, work in (
        (cli, "main", "cli.main", None),
        (cli, "build_run_config", "cli.build_run_config", None),
        (cli, "run_scenario", "montecarlo.run_scenario", None),
        (cli, "emit_results", "cli.emit_results", None),
        (montecarlo, "build_context", "montecarlo.build_context", None),
        (montecarlo, "run_trial", "montecarlo.run_trial", None),
        (montecarlo, "build_cov_model", "arraymodel.build_cov_model", None),
        (montecarlo, "theory_report", "arraymodel.theory_report", None),
        (montecarlo, "synth_scene_snapshots", "signalsim.synth_scene_snapshots", None),
        (montecarlo, "synth_scene_secondary", "signalsim.synth_scene_secondary", None),
        (montecarlo, "scm", "estimation.scm", scm),
        (montecarlo, "adaptive_capon_weights", "beamformers.adaptive_capon_weights", None),
        (montecarlo, "apply_weights", "beamformers.apply_weights", None),
        (montecarlo, "aggregate", "metrics.aggregate", len),
        (beamformers, "cholesky", "linalg.cholesky", chol),
        (beamformers, "solve_chol", "linalg.solve_chol", None),
        (arraymodel, "cholesky", "linalg.cholesky", chol),
        (arraymodel, "solve_chol", "linalg.solve_chol", None),
        (signalsim.RngStream, "generator", "signalsim.rng_stream", None),
    ):
        tracer.wrap(owner, attr, name, work)
    return tracer


def install_context_counter():
    """Count ``build_context`` calls across the process and its forked workers."""
    import multiprocessing

    from caponplus import montecarlo

    counter = multiprocessing.Value("q", 0)
    fn = montecarlo.build_context

    def counted(*args, **kwargs):
        with counter.get_lock():
            counter.value += 1
        return fn(*args, **kwargs)

    montecarlo.build_context = counted
    return counter


def run(spec: dict) -> dict:
    from caponplus import cli  # set-up time includes importing the package
    from caponplus.presets import PRESETS

    doc = {
        **PRESETS[spec["preset"]],
        **spec["overrides"],
        "output_path": spec["out"],
        "output_format": "csv",
    }
    with open(spec["cfg"], "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    cli.parse_config(spec["cfg"])
    t_setup = time.monotonic()

    tracer = install_tracer() if spec["trace"] == "spans" else None
    counter = install_context_counter() if spec["trace"] == "count" else None
    t_main = time.monotonic()
    rc = cli.main(["run", spec["cfg"], "--seed", str(spec["seed"]),
                   "--threads", str(spec["threads"])])
    t_end = time.monotonic()
    if tracer is not None:
        with open(spec["spans"], "w", encoding="utf-8") as fh:
            json.dump(tracer.spans, fh, separators=(",", ":"))
    return {
        "rc": rc,
        "t_setup": t_setup,
        "t_main": t_main,
        "t_end": t_end,
        "build_context_calls": counter.value if counter is not None else None,
    }


def _per_call_us(fn, budget_s: float) -> float:
    """Median per-call time of ``fn(i)`` over timed batches, in microseconds."""
    clock = time.perf_counter
    calls = iter(range(1 << 62))
    n = 1
    while True:  # grow the batch until it takes at least 1/8 of the budget
        t0 = clock()
        for _ in range(n):
            fn(next(calls))
        if clock() - t0 >= budget_s / 8 or n >= 1 << 20:
            break
        n *= 2
    samples = []
    for _ in range(5):
        t0 = clock()
        for _ in range(n):
            fn(next(calls))
        samples.append((clock() - t0) / n)
    samples.sort()
    return samples[2] * 1e6


def micro(spec: dict) -> dict:
    """Direct calls into single layers on the reference scenes."""
    from caponplus import cli, estimation, linalg, metrics, montecarlo, signalsim
    from caponplus.presets import PRESETS

    seed = spec["seed"]

    def scenario(preset: str):
        return cli.build_run_config(PRESETS[preset]).scenario

    def synth(cfg, snapshots: int, i: int):
        return signalsim.synth_scene_snapshots(
            cfg.geom, montecarlo.snr_to_scene(cfg.base_scene, 0.0), cfg.waveform,
            snapshots, signalsim.TrialRngs(seed, i))

    gauss, psk = scenario("fig1"), scenario("fig4a")
    m = gauss.geom.antennas
    batch60, batch200 = synth(gauss, 60, 0), synth(psk, 200, 0)
    scm60 = estimation.scm(batch60).matrix

    table = {}

    def add(name, fn, work=None):
        row = {"us": _per_call_us(fn, spec["budget_s"])}
        if work is not None:
            row["flops_computed"], row["bytes_computed"] = work
        table[name] = row

    add("linalg.cholesky_m25", lambda i: linalg.cholesky(scm60), cholesky_work(m))
    add("estimation.scm_t60", lambda i: estimation.scm(batch60), scm_work(60, m))
    add("estimation.scm_t200", lambda i: estimation.scm(batch200), scm_work(200, m))
    add("signalsim.synth_scene_snapshots_gauss_t60", lambda i: synth(gauss, 60, i))
    add("signalsim.synth_scene_snapshots_psk8_t200", lambda i: synth(psk, 200, i))
    for role in signalsim.StreamRole:
        add(f"signalsim.rng_{role.name.lower()}",
            lambda i, role=role: signalsim.TrialRngs(seed, i).stream(role))
    for regime, preset in (("oracle", "fig1"), ("a", "fig3"), ("b", "fig4a"),
                           ("c", "fig5"), ("d", "fig6")):
        cfg = scenario(preset)
        value = 60.0 if cfg.sweep.variable is montecarlo.SweepVariable.T0 else cfg.sweep.values[0]
        ctx = montecarlo.build_context(cfg, value)
        add(f"montecarlo.run_trial_{regime}",
            lambda i, cfg=cfg, value=value, ctx=ctx: montecarlo.run_trial(cfg, value, i, ctx))
    ctx = montecarlo.build_context(gauss, 0.0)
    records = [r for i in range(1000) for r in montecarlo.run_trial(gauss, 0.0, i, ctx)]
    add("metrics.aggregate_1000_trials", lambda i: metrics.aggregate(records))
    return {"table": table}


def main() -> None:
    with open(sys.argv[1], encoding="utf-8") as fh:
        spec = json.load(fh)
    result = micro(spec) if spec["mode"] == "micro" else run(spec)
    with open(spec["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
