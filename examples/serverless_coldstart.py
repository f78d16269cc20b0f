#!/usr/bin/env python3
"""Serverless GPU cold starts from a checkpoint (§7, Fig. 14).

A function image is checkpointed once, just before its entry point;
each request then cold-starts by restoring it.  PHOS hands out a pooled
GPU context in ~10 ms and streams data concurrently with the first
tokens' execution, so the request is served in well under a second for
small models (paper: 622 ms even for Llama2-13B).

Run:  python examples/serverless_coldstart.py
"""

from repro import units
from repro.baselines import SYSTEMS
from repro.tasks.serverless import cold_start

APPS = ("resnet152-infer", "llama2-13b-infer")


def main() -> None:
    for app in APPS:
        print(f"cold-starting {app} (8 requests per cold start)")
        results = {}
        for system in SYSTEMS:
            r = cold_start(system, app, n_requests=8)
            results[system] = r
            e2e = units.fmt_seconds(r.end_to_end) if r.supported else "n/a"
            exe = units.fmt_seconds(r.exec_time) if r.supported else "n/a"
            print(f"  {system:16s} end-to-end {e2e:>10s}   "
                  f"(execution alone {exe})")
        phos = results["phos"].end_to_end
        print(f"  -> PHOS speedup: "
              f"{results['singularity'].end_to_end / phos:.1f}x vs "
              f"Singularity, "
              f"{results['cuda-checkpoint'].end_to_end / phos:.1f}x vs "
              "cuda-checkpoint\n")


if __name__ == "__main__":
    main()
