#!/usr/bin/env python3
"""Replays the CI gates of .github/workflows/ci.yml locally.

Reads the workflow, and for every job (each matrix entry of it) runs the
job's `run:` steps in order, in a fresh copy of the working tree under
--work, with the job's and the step's `env:` applied.  Steps that only
provision a CI runner (package installs, cache restores) are skipped; the
toolchain, GoogleTest and Google Benchmark must already be installed.

Local adjustments, each made because the CI form fails outside a runner:
  * `--benchmark_min_time=0.01s` becomes `--benchmark_min_time=0.01`:
    Debian's Google Benchmark 1.7 rejects the unit suffix;
  * `-DCMAKE_*_COMPILER_LAUNCHER=ccache` is dropped when ccache is absent;
  * `${{ github.workspace }}`, `$GITHUB_WORKSPACE` and `$RUNNER_TEMP` point
    at the job's copy and a scratch directory inside it.

Usage:
  python3 tools/ci_local.py                      # every job
  python3 tools/ci_local.py --job tsan --job bench-smoke
  python3 tools/ci_local.py --work /tmp/ci --keep-going

Needs PyYAML.  Exit status: 0 when every step of every selected job passed.
"""

import argparse
import os
import re
import shutil
import signal
import subprocess
import sys

try:
    import yaml
except ImportError:
    sys.exit("ci_local: PyYAML is required (python3 -m pip install pyyaml)")

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKFLOW = os.path.join(ROOT, ".github", "workflows", "ci.yml")
EXPR = re.compile(r"\$\{\{\s*([\w.]+)\s*\}\}")


def provisioning(step):
    """True for steps that set up a CI runner rather than check anything."""
    name = step.get("name", "")
    run = step.get("run", "")
    return "uses" in step or name == "Install dependencies" or run.strip() == "ccache -s"


def substitute(text, context):
    def lookup(match):
        key = match.group(1)
        if key not in context:
            raise KeyError(f"ci_local: no local value for ${{{{ {key} }}}}")
        return str(context[key])

    return EXPR.sub(lookup, text)


def localize(command):
    command = re.sub(r"(--benchmark_min_time=[0-9.]+)s\b", r"\1", command)
    if shutil.which("ccache") is None:
        command = re.sub(r"\s*-DCMAKE_\w+_COMPILER_LAUNCHER=ccache", "", command)
    return command


def copy_tree(dest):
    """Copies the tracked and untracked-but-not-ignored files, as CI checks
    out the commit (uncommitted edits included, build outputs left out)."""
    listed = subprocess.run(
        ["git", "ls-files", "--cached", "--others", "--exclude-standard", "-z"],
        cwd=ROOT, check=True, capture_output=True).stdout.decode()
    for rel in filter(None, listed.split("\0")):
        src = os.path.join(ROOT, rel)
        if not os.path.isfile(src):
            continue  # deleted in the working tree
        os.makedirs(os.path.dirname(os.path.join(dest, rel)), exist_ok=True)
        shutil.copy2(src, os.path.join(dest, rel))


def run_job(job_id, job, matrix, work, keep_going):
    label = job_id + "".join(f" {k}={v}" for k, v in matrix.items())
    where = os.path.join(work, job_id + "".join(f"-{v}" for v in matrix.values()))
    shutil.rmtree(where, ignore_errors=True)
    copy_tree(where)
    temp = os.path.join(where, ".runner-temp")
    os.makedirs(temp)
    context = {f"matrix.{k}": v for k, v in matrix.items()}
    context["github.workspace"] = where
    failed = 0
    for step in job.get("steps", []):
        if provisioning(step):
            continue
        env = dict(os.environ, GITHUB_WORKSPACE=where, RUNNER_TEMP=temp)
        for scope in (job.get("env", {}), step.get("env", {})):
            env.update({k: substitute(str(v), context) for k, v in scope.items()})
        command = localize(substitute(step["run"], context))
        print(f"\n=== [{label}] {step.get('name', command.splitlines()[0])}", flush=True)
        step_proc = subprocess.Popen(
            ["bash", "--noprofile", "--norc", "-eo", "pipefail", "-c", command],
            cwd=where, env=env, start_new_session=True)
        code = step_proc.wait()
        try:
            # A runner reaps what a step left behind (a server a failed step
            # never stopped); do the same so it cannot hold a port.
            os.killpg(step_proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        if code != 0:
            print(f"=== [{label}] FAILED (exit {code})", flush=True)
            failed += 1
            if not keep_going:
                break
    return failed


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--job", action="append", help="job id to run (repeatable; default all)")
    parser.add_argument("--work", default=os.path.join(ROOT, ".ci-local"),
                        help="directory the per-job copies are made in")
    parser.add_argument("--keep-going", action="store_true",
                        help="run a job's later steps after one fails")
    args = parser.parse_args()

    with open(WORKFLOW) as f:
        jobs = yaml.safe_load(f)["jobs"]
    unknown = set(args.job or []) - set(jobs)
    if unknown:
        sys.exit(f"ci_local: unknown job(s) {sorted(unknown)}; jobs are {sorted(jobs)}")

    failures = []
    for job_id, job in jobs.items():
        if args.job and job_id not in args.job:
            continue
        for matrix in job.get("strategy", {}).get("matrix", {}).get("include", [{}]):
            if run_job(job_id, job, matrix, os.path.abspath(args.work), args.keep_going):
                failures.append(job_id + "".join(f" {k}={v}" for k, v in matrix.items()))
    print("\nci_local: " + ("PASS" if not failures else "FAIL: " + "; ".join(failures)))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
