#!/usr/bin/env python3
"""Run one workload of the AutoFJ benchmark.

    python3 perfbench/run.py --workload single|multi --seed N --seconds S --trace 0|1

Run it from the repository root. The first run builds the benchmark with sbt
(perfbench/build.sbt compiles the program's sources together with the
benchmark's own code); later runs reuse the build while no source has changed.
The program reads SPARK_MASTER, SPARK_SHUFFLE_PARTITIONS and SPARK_DRIVER_MEM
from the environment; the benchmark command pins all three. Every file a run
writes stays under perfbench/target; a traced run (--trace 1) leaves its spans
in perfbench/target/spans.jsonl. The last line of standard output is the
result object printed by repro.perfbench.Main.
"""
import hashlib
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PROGRAM_SOURCES = [ROOT / "src" / "main" / "scala", ROOT / "jobs"]
BENCH_SOURCES = [HERE / "src", HERE / "build.sbt", HERE / "project" / "build.properties"]
TARGET = HERE / "target"
STAMP = TARGET / "sources.sha256"
CLASSPATH = TARGET / "runtime.classpath"

BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170

# The module openings Spark's own launcher passes to a JVM on Java 17.
OPENS = [
    "java.base/java.lang", "java.base/java.lang.invoke", "java.base/java.lang.reflect",
    "java.base/java.io", "java.base/java.net", "java.base/java.nio",
    "java.base/java.util", "java.base/java.util.concurrent",
    "java.base/java.util.concurrent.atomic", "java.base/jdk.internal.ref",
    "java.base/sun.nio.ch", "java.base/sun.nio.cs", "java.base/sun.security.action",
    "java.base/sun.util.calendar",
]


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def source_digest():
    h = hashlib.sha256()
    for root in PROGRAM_SOURCES + BENCH_SOURCES:
        files = sorted(root.rglob("*")) if root.is_dir() else [root]
        for f in files:
            if f.is_file():
                h.update(str(f.relative_to(ROOT)).encode() + b"\0" + f.read_bytes() + b"\0")
    return h.hexdigest()


def spark_home():
    home = os.environ.get("SPARK_HOME")
    if not home:
        submit = shutil.which("spark-submit")
        if submit is None:
            fail("set SPARK_HOME or put spark-submit on PATH")
        home = str(Path(submit).resolve().parent.parent)
    return home


def build(env):
    digest = source_digest()
    if CLASSPATH.is_file() and STAMP.is_file() and STAMP.read_text() == digest:
        return
    t0 = time.monotonic()
    cmd = ["sbt", "--batch", "-Dsbt.log.noformat=true", "compile", "writeClasspath"]
    try:
        proc = subprocess.run(cmd, cwd=HERE, env=env, stdout=sys.stderr, stdin=subprocess.DEVNULL,
                              timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("build timed out")
    if proc.returncode != 0 or not CLASSPATH.is_file():
        fail("build failed")
    STAMP.write_text(digest)
    print(f"perfbench: built in {time.monotonic() - t0:.1f}s", file=sys.stderr)


def main():
    for src in PROGRAM_SOURCES:
        if not src.is_dir():
            fail(f"program sources not found at {src.relative_to(ROOT)}; run from a full checkout")
    env = dict(os.environ, SPARK_HOME=spark_home())
    build(env)

    # Spark's local directories, native-library extraction and the JVM's working
    # directory all live in one per-run directory that is removed afterwards.
    rundir = TARGET / f"run-{os.getpid()}"
    rundir.mkdir(parents=True, exist_ok=True)
    env["SPARK_LOCAL_DIRS"] = str(rundir)
    classpath = os.pathsep.join(CLASSPATH.read_text().split())
    java = os.path.join(os.environ["JAVA_HOME"], "bin", "java") if "JAVA_HOME" in os.environ else "java"
    cmd = ([java, f"-Xmx{os.environ.get('SPARK_DRIVER_MEM', '2g')}"]
           + [f"--add-opens={p}=ALL-UNNAMED" for p in OPENS]
           + ["-Dspark.ui.enabled=false", "-Dspark.driver.host=127.0.0.1",
              f"-Djava.io.tmpdir={rundir}", f"-Dperfbench.spans={TARGET / 'spans.jsonl'}",
              "-cp", classpath, "repro.perfbench.Main"]
           + sys.argv[1:])
    proc = subprocess.Popen(cmd, cwd=rundir, env=env, stdout=subprocess.PIPE, stdin=subprocess.DEVNULL)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail(f"run exceeded {RUN_TIMEOUT_S}s")
    finally:
        shutil.rmtree(rundir, ignore_errors=True)
    sys.stdout.write(out.decode())
    sys.stdout.flush()
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
