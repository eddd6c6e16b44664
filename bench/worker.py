"""One fresh benchmark worker process.

Reads one JSON job from stdin, runs it against charcoords (found through
PYTHONPATH=src) and writes one JSON result line to stdout:

  {"mode": "setup"}
      import charcoords.cli and build its parser, nothing more;
  {"mode": "sweep", "argv": [...], "trace": bool}
      one `charcoords <argv>` run through cli.main, stdout captured;
  {"mode": "queries", "requests": [[pair_id, method, argv], ...], "trace": bool}
      one closed-loop client issuing every request through cli.main;
  {"mode": "probes"}
      the fixed-input kernel probes of probes.py.

Every result carries t_setup, the CLOCK_MONOTONIC reading (comparable
across processes) once the CLI is imported and its parser built.  With
"trace" set, the names that charcoords.verify and charcoords.cli import
from the other modules, the verify suites and cli.main are rebound to
span-recording wrappers before anything runs; the program's own modules
are not touched.
"""

import contextlib
import importlib
import io
import json
import resource
import sys
import time
import traceback


def monotonic() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


# public functions whose calls from verify and cli get a span
COVERED = {
    "cotangent": ("icot_power", "cotangent_number"),
    "characters": ("enumerate_characters", "gauss_sum"),
    "coordinates": (
        "coord_definitional", "coord_power_closed", "coord_cotangent_closed",
        "coord_power_primitive", "reconstruct", "direct_sum_float",
    ),
    "cyclotomic": ("to_common_order",),
    "combinatorics": (
        "cot_power_coeff", "coeff_bridge", "bernoulli_conv_coeff",
        "bernoulli_conv_coeff_bruteforce",
    ),
    "series": (
        "verify_stirling_identity", "verify_power_decomposition",
        "bernoulli_conv_coeff_from_series",
    ),
}

# lru-cached public functions whose cache_info() is reported
CACHED = (
    ("coordinates", "coord_definitional"),
    ("characters", "gauss_sum"),
    ("cyclotomic", "cyclotomic_polynomial"),
    ("characters", "character_group"),
)


def install_tracer(cli):
    from harness import Tracer

    verify = importlib.import_module("charcoords.verify")
    tracer = Tracer()
    for module_name, names in COVERED.items():
        module = importlib.import_module("charcoords." + module_name)
        for name in names:
            fn = getattr(module, name)
            wrapped = tracer.wrap("%s.%s" % (module_name, name), fn)
            for namespace in (verify, cli):
                if getattr(namespace, name, None) is fn:
                    setattr(namespace, name, wrapped)
    for suite, fn in list(verify.SUITES.items()):
        verify.SUITES[suite] = tracer.wrap("verify." + suite, fn)
    return tracer


def cache_stats() -> dict:
    out = {}
    for module_name, name in CACHED:
        info = getattr(importlib.import_module("charcoords." + module_name), name).cache_info()
        out["%s.%s" % (module_name, name)] = {
            "hits": info.hits, "misses": info.misses, "entries": info.currsize,
        }
    return out


def call_main(main, argv):
    """cli.main(argv) with stdout captured: (exit code or None, stdout)."""
    buf = io.StringIO()
    try:
        with contextlib.redirect_stdout(buf):
            rc = main(argv)
    except Exception:  # the client keeps going; the request counts as failed
        traceback.print_exc()
        rc = None
    return rc, buf.getvalue()


def coord_value(rc, text):
    if rc != 0:
        return None
    try:
        return json.loads(text)["results"][0]["value"]
    except (ValueError, KeyError, IndexError, TypeError):
        return None


def run(job: dict) -> dict:
    from charcoords import cli

    cli.build_parser()
    out = {"t_setup": monotonic()}
    mode = job["mode"]
    if mode == "probes":
        from probes import run_probes

        out["probes"] = run_probes()
    elif mode in ("sweep", "queries"):
        tracer = install_tracer(cli) if job.get("trace") else None
        main = tracer.wrap("cli.main", cli.main) if tracer else cli.main
        if mode == "sweep":
            rc, text = call_main(main, job["argv"])
            out["t_done"] = monotonic()
            out["rc"] = rc
            try:
                out["report"] = json.loads(text)
            except ValueError:
                out["report"] = None
        else:
            latencies, answers = [], []
            for pair_id, method, argv in job["requests"]:
                t0 = time.perf_counter()
                rc, text = call_main(main, argv)
                latencies.append(time.perf_counter() - t0)
                answers.append((pair_id, method, rc, text))
            out["t_done"] = monotonic()
            out["latencies_s"] = latencies
            out["records"] = [(p, m, rc, coord_value(rc, t)) for p, m, rc, t in answers]
        if tracer:
            from harness import aggregate

            out["spans"] = aggregate(tracer.spans)
            out["caches"] = cache_stats()
    elif mode != "setup":
        raise ValueError("unknown job mode %r" % mode)
    out["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return out


if __name__ == "__main__":
    result = run(json.load(sys.stdin))
    sys.stdout.write(json.dumps(result) + "\n")
