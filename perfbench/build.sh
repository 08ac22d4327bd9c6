#!/usr/bin/env bash
# Build file of the benchmark package: compiles the program's main sources
# (src/main/scala, jobs) together with perfbench/src into one class directory,
# using the Scala compiler that ships with the Spark distribution.
#
# Usage (from the repository root): bash perfbench/build.sh
# Prints the class directory on stdout. Output lives under $BUILD_ROOT
# (default .bench_build), keyed by a hash of every compiled source, so an
# unchanged tree is not rebuilt.
set -euo pipefail
cd "$(dirname "$0")/.."

spark_home="${SPARK_HOME:-$(dirname "$(dirname "$(command -v spark-submit || echo .)")")}"
SPARK_JARS="$spark_home/jars"
BUILD_ROOT="${CARGO_TARGET_DIR:-.bench_build}"

for d in src/main/scala jobs perfbench/src; do
  [ -d "$d" ] || { echo "perfbench: missing source directory $d (run from a full checkout)" >&2; exit 2; }
done
[ -f "$SPARK_JARS/scala-compiler-2.13.17.jar" ] || { echo "perfbench: no Scala compiler in $SPARK_JARS" >&2; exit 2; }

sources=$(find src/main/scala jobs perfbench/src -name '*.scala' | LC_ALL=C sort)
hash=$( (echo "$sources"; cat $sources) | sha256sum | cut -c1-16)
out="$BUILD_ROOT/perfbench/$hash"

if [ ! -f "$out/.complete" ]; then
  rm -rf "$out.tmp"
  mkdir -p "$out.tmp/classes"
  # shellcheck disable=SC2086
  java -XX:-UsePerfData -Xss8m -Xmx1g -cp "$SPARK_JARS/*" scala.tools.nsc.Main -usejavacp -nowarn \
    -d "$out.tmp/classes" $sources >&2
  echo "$hash" > "$out.tmp/source_sha256"
  rm -rf "$out"
  mv "$out.tmp" "$out"
  touch "$out/.complete"
fi
echo "$out"
