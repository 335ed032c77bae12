#!/usr/bin/env python3
"""Build and run the CFPQ benchmark.

    python3 cfpqbench/run.py --workload q1-funding --seed 1 --seconds 5 --trace 0

Run it from the root of a checkout. The first run compiles the program's
sources (src/main/scala) together with the benchmark (cfpqbench/src) with
sbt, offline, into the build directory ($CARGO_TARGET_DIR, else
.bench_build); later runs reuse that build while the sources are unchanged.
It then runs one benchmark JVM and passes its standard output through: the
last line is the result object. The exit code is the JVM's (non-zero when
any solve was wrong), or 2 if the program cannot be built or run.
"""
import hashlib
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
PROGRAM = os.path.join(ROOT, "src", "main", "scala")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170
HEAP = ["-Xms2g", "-Xmx2g"]
# Build outputs of sbt inside the benchmark directory, not sources.
SKIP_DIRS = {"target", "project/target", "project/project", ".bsp"}
BUILD_INPUTS = (".scala", ".java", ".sbt", ".properties")


def die(msg):
    print(f"cfpqbench: {msg}", file=sys.stderr)
    sys.exit(2)


def digest():
    """SHA-256 over the paths and contents of every file the build compiles."""
    h = hashlib.sha256()
    for base in (PROGRAM, HERE):
        for d, dirs, files in os.walk(base):
            rel = os.path.relpath(d, base)
            dirs[:] = sorted(x for x in dirs
                             if os.path.normpath(os.path.join(rel, x)) not in SKIP_DIRS)
            for f in sorted(files):
                if not f.endswith(BUILD_INPUTS):
                    continue
                p = os.path.join(d, f)
                h.update(os.path.relpath(p, ROOT).encode() + b"\0")
                with open(p, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()


def spark_home():
    home = os.environ.get("SPARK_HOME")
    if not home:
        submit = shutil.which("spark-submit")
        if submit:
            home = os.path.dirname(os.path.dirname(os.path.realpath(submit)))
    if not home or not os.path.isdir(os.path.join(home, "jars")):
        die("no Spark distribution: set SPARK_HOME or put spark-submit on PATH")
    return home


def sbt_env(target):
    env = dict(os.environ, CFPQBENCH_TARGET=target, SPARK_HOME=spark_home())
    env.setdefault("COURSIER_MODE", "offline")
    if "SBT_OPTS" not in env:
        opts = ["-Dsbt.offline=true"]
        repos = os.path.expanduser("~/.sbt/repositories")
        if os.path.isfile(repos):
            opts += ["-Dsbt.override.build.repos=true", f"-Dsbt.repository.config={repos}"]
        env["SBT_OPTS"] = " ".join(opts)
    return env


def build(build_dir, sources):
    """Compile if the sources changed; return the runtime classpath and the
    JVM options the build defines."""
    target = os.path.join(build_dir, "sbt")
    stamp = os.path.join(build_dir, "sources.sha256")
    cp_file = os.path.join(target, "classpath.txt")
    opts_file = os.path.join(target, "jvm-options.txt")

    def built():
        with open(cp_file) as fh:
            classpath = fh.read().strip()
        with open(opts_file) as fh:
            return classpath, fh.read().split()

    if os.path.isfile(cp_file) and os.path.isfile(opts_file) and os.path.isfile(stamp):
        with open(stamp) as fh:
            if fh.read().strip() == sources:
                return built()
    sbt = shutil.which("sbt")
    if not sbt:
        die("sbt is not on PATH")
    cmd = [sbt, "--batch", "-Dsbt.log.noformat=true", "-Dsbt.server.autostart=false",
           "writeClasspath"]
    try:
        done = subprocess.run(cmd, cwd=HERE, env=sbt_env(target), stdout=sys.stderr,
                              stderr=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        die(f"build did not finish in {BUILD_TIMEOUT_S} s")
    if done.returncode != 0 or not os.path.isfile(cp_file) or not os.path.isfile(opts_file):
        die(f"build failed (sbt exit {done.returncode})")
    with open(stamp, "w") as fh:
        fh.write(sources + "\n")
    return built()


def git_commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")) or not shutil.which("git"):
        return "unknown"
    done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def main(args):
    # On SIGTERM, exit through the handlers below, which stop the child.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not os.path.isdir(os.path.join(PROGRAM, "repro")):
        die(f"no program sources under {os.path.relpath(PROGRAM, ROOT)}")
    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    os.makedirs(build_dir, exist_ok=True)
    sources = digest()
    classpath, jvm_options = build(build_dir, sources)
    work = os.path.join(build_dir, "work")
    tmp = os.path.join(work, "tmp")
    os.makedirs(tmp, exist_ok=True)
    java_home = os.environ.get("JAVA_HOME")
    java = os.path.join(java_home, "bin", "java") if java_home else "java"
    cmd = [java] + HEAP + jvm_options + [
        f"-Djava.io.tmpdir={tmp}",
        f"-Dcfpqbench.workdir={work}",
        f"-Dcfpqbench.commit={git_commit()}",
        f"-Dcfpqbench.sources={sources}",
        "-cp", classpath, "cfpqbench.Main",
    ] + args
    proc = subprocess.Popen(cmd, cwd=ROOT)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        die(f"benchmark did not finish in {RUN_TIMEOUT_S} s")
    except BaseException:
        proc.kill()
        proc.wait()
        raise


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
