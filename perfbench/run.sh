#!/usr/bin/env bash
# Entry point of the benchmark. Run from the repository root:
#
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#   bash perfbench/run.sh --selftest          # arithmetic checks + tiny smoke run of every workload
#   bash perfbench/run.sh --make-references   # recompute perfbench/references/*.properties
#
# Builds the program from source on first use (perfbench/build.sh), then runs
# everything in one JVM on Spark local[N], N = min(4, nproc), with a pinned
# driver heap. -Xms = -Xmx keeps the heap from resizing during a run, and
# AlwaysPreTouch faults every heap page in at JVM start: otherwise first
# touches of fresh heap pages are spread over the first minute of queries,
# which then ran 15% slower and drifted. The last stdout line is the JSON
# result.
set -euo pipefail
cd "$(dirname "$0")/.."

out=$(bash perfbench/build.sh)
spark_home="${SPARK_HOME:-$(dirname "$(dirname "$(command -v spark-submit || echo .)")")}"
SPARK_JARS="$spark_home/jars"
cores=$(nproc)
[ "$cores" -gt 4 ] && cores=4
heap=4g
work="$out/run"
mkdir -p "$work/tmp" "$work/spark-local"

opens=""
for p in java.lang java.lang.invoke java.lang.reflect java.io java.net java.nio \
         java.util java.util.concurrent java.util.concurrent.atomic jdk.internal.ref \
         sun.nio.ch sun.nio.cs sun.security.action sun.util.calendar; do
  opens="$opens --add-opens=java.base/$p=ALL-UNNAMED"
done

sha=none
[ -e .git ] && sha=$(git rev-parse HEAD 2>/dev/null || echo none)

# shellcheck disable=SC2086
exec java -Xms$heap -Xmx$heap -XX:+AlwaysPreTouch -XX:-UsePerfData $opens \
  -Djava.io.tmpdir="$work/tmp" \
  -Dlog4j2.configurationFile=perfbench/log4j2.properties \
  -Dspark.master="local[$cores]" \
  -Dspark.driver.host=127.0.0.1 \
  -Dspark.ui.enabled=false \
  -Dspark.local.dir="$work/spark-local" \
  -Dspark.sql.warehouse.dir="$work/spark-warehouse" \
  -Dperfbench.heap=$heap \
  -Dperfbench.git_sha="$sha" \
  -Dperfbench.source_sha256="$(cat "$out/source_sha256")" \
  -Dperfbench.state_dir="$out" \
  -cp "$out/classes:$SPARK_JARS/*" repro.perfbench.Main "$@"
