#!/usr/bin/env bash
# Documentation lint, run by ctest as the `docs` label (see
# tests/CMakeLists.txt). Two cross-checks keep the docs honest:
#
#  1. Every protocol verb in the one verb table (kVerbTable in
#     src/net/frame.cc, which both codecs look verbs up in) appears in
#     docs/SERVING.md, together with its wire byte.
#  2. Every metric family registered in the sources (rpm_*_total,
#     rpm_*_microseconds, gauges, ...) appears in docs/OBSERVABILITY.md,
#     and so does every trace span name recorded via TraceSpan /
#     MaybeRecord.
#
# A third class of check keeps the fuzz harness honest rather than the
# docs: every verb in the wire table must have a production in the fuzz
# grammar (section 4), so protocol growth can't silently escape fuzzing.
# Section 7 checks that every RpmOptions::<name> the docs cite is a
# member of the struct. Section 8 runs check 2 in reverse: every metric
# and span docs/OBSERVABILITY.md names must still be registered in the
# sources, so a deleted one cannot linger in the docs. Section 9 checks
# that every repository path the prose docs cite still exists.
#
# Run from the repo root (ctest sets WORKING_DIRECTORY accordingly):
#   scripts/docs_lint.sh

set -u
cd "$(dirname "$0")/.."

fail=0

# --- 1. protocol verbs ------------------------------------------------
# kVerbTable pins the verb names (the text codec accepts exactly these
# command words); frame.h pins the wire bytes. Both must appear in
# SERVING.md: the name anywhere, and the byte as the 0xNN literal from
# the BinaryVerb enum.
verbs=$(grep -oE '\{BinaryVerb::k[A-Za-z]+, "[A-Z_]+"\}' src/net/frame.cc |
            grep -oE '"[A-Z_]+"' | tr -d '"' | sort -u)
if [ -z "$verbs" ]; then
  echo "docs_lint: found no verbs in src/net/frame.cc (pattern drift?)"
  fail=1
fi
for verb in $verbs; do
  if ! grep -q "\b${verb}\b" docs/SERVING.md; then
    echo "docs_lint: verb ${verb} (src/net/frame.cc) missing from docs/SERVING.md"
    fail=1
  fi
done
verb_bytes=$(grep -oE '= 0x[0-9A-F]+,' src/net/frame.h | grep -oE '0x[0-9A-F]+' | sort -u)
for byte in $verb_bytes; do
  if ! grep -q "${byte}" docs/SERVING.md; then
    echo "docs_lint: binary verb byte ${byte} (src/net/frame.h) missing from docs/SERVING.md"
    fail=1
  fi
done

# --- 2. metric families ----------------------------------------------
metrics=$(grep -rhoE '"rpm_(serve|stream|matcher|net)_[a-z_]+"' src |
          tr -d '"' | sort -u)
if [ -z "$metrics" ]; then
  echo "docs_lint: found no metric names under src/ (pattern drift?)"
  fail=1
fi
for metric in $metrics; do
  if ! grep -q "${metric}" docs/OBSERVABILITY.md; then
    echo "docs_lint: metric ${metric} missing from docs/OBSERVABILITY.md"
    fail=1
  fi
done

# --- 3. PatternStore public surface -----------------------------------
# Every public method of the SoA pattern store must be covered by the
# training-path performance notes (docs/PERF.md). Extracted from the
# public section of the header, skipping comment lines and nested-type
# names; the constructor matches the class name, which PERF.md names
# anyway.
ps_methods=$(awk '/public:/{pub=1} /private:/{pub=0}
                  pub && $1 !~ /^\/\//' src/distance/pattern_store.h |
             grep -oE '(^|[ ~*&])[A-Za-z_][A-Za-z0-9_]*\(' |
             grep -oE '[A-Za-z_][A-Za-z0-9_]*' | sort -u |
             grep -vE '^(BucketInfo|if|for|while|return|sizeof)$')
if [ -z "$ps_methods" ]; then
  echo "docs_lint: found no public methods in src/distance/pattern_store.h (pattern drift?)"
  fail=1
fi
for m in $ps_methods; do
  if ! grep -q "\b${m}\b" docs/PERF.md; then
    echo "docs_lint: PatternStore public method ${m} (src/distance/pattern_store.h) missing from docs/PERF.md"
    fail=1
  fi
done

# --- 4. fuzz grammar verb coverage ------------------------------------
# The fuzz grammar (src/fuzz/grammar.cc) must generate every verb in the
# wire table: a verb added to kVerbTable without a matching production
# silently shrinks fuzz coverage, so make the gap loud here. (Section 1
# already fails when the table yields no verbs.)
grammar_src=src/fuzz/grammar.cc
for verb in $verbs; do
  if ! grep -q "\"${verb}\"" "$grammar_src"; then
    echo "docs_lint: verb ${verb} (src/net/frame.cc kVerbTable) has no production in ${grammar_src}"
    fail=1
  fi
done

# --- 5. span names ----------------------------------------------------
spans=$(
  {
    grep -rhoE 'TraceSpan [a-z_]+\("[a-z_.]+"' src |
      grep -oE '"[a-z_.]+"'
    grep -rhoE 'MaybeRecord\("[a-z_.]+"' src |
      grep -oE '"[a-z_.]+"'
    # Phase spans are table-driven (core/phase_profile.cc).
    grep -rhoE '"train\.[a-z_]+"' src/core/phase_profile.cc
  } | tr -d '"' | sort -u
)
for span in $spans; do
  if ! grep -q "${span}" docs/OBSERVABILITY.md; then
    echo "docs_lint: span ${span} missing from docs/OBSERVABILITY.md"
    fail=1
  fi
done

# --- 6. dataset I/O public surface ------------------------------------
# Every public symbol of the binary dataset layer must be covered by the
# format spec (docs/DATASETS.md): free functions, both classes, and
# every public method. Extraction starts in "public" state (free
# functions and struct members), turns off at private: sections, and
# back on when a class body closes at column 0.
ds_header=src/ts/dataset_io.h
ds_symbols=$(awk 'BEGIN{pub=1} /private:/{pub=0} /public:/{pub=1}
                  /^};/{pub=1} pub && $1 !~ /^\/\//' "$ds_header" |
             grep -oE '(^|[ ~*&])[A-Za-z_][A-Za-z0-9_]*\(' |
             grep -oE '[A-Za-z_][A-Za-z0-9_]*' | sort -u |
             grep -vE '^(if|for|while|return|sizeof|defined)$')
ds_classes="DatasetFormatError DatasetWriterOptions DatasetWriter DatasetReaderOptions DatasetReader"
if [ -z "$ds_symbols" ] || ! echo "$ds_symbols" | grep -q 'Crc32'; then
  echo "docs_lint: found no public symbols in ${ds_header} (pattern drift?)"
  fail=1
fi
for sym in $ds_symbols $ds_classes; do
  if ! grep -q "\b${sym}\b" docs/DATASETS.md; then
    echo "docs_lint: dataset symbol ${sym} (${ds_header}) missing from docs/DATASETS.md"
    fail=1
  fi
done

# --- 7. RpmOptions field names ----------------------------------------
# Every RpmOptions::<name> the prose docs cite must be a member declared
# in the struct in src/core/options.h, so a deleted or renamed option
# cannot linger in the docs. Members are the declaration lines of the
# struct body (comment lines skipped): a type, the name, then `=` or `;`.
opt_header=src/core/options.h
opt_members=$(awk '/^struct RpmOptions \{/{inside=1; next}
                   inside && /^\};/{inside=0} inside' "$opt_header" |
              grep -vE '^[[:space:]]*//' |
              grep -oE '^[[:space:]]+[A-Za-z_][A-Za-z0-9_:<>*&]*[[:space:]]+[a-z_][a-z0-9_]*[[:space:]]*[=;]' |
              grep -oE '[a-z_][a-z0-9_]*[[:space:]]*[=;]$' |
              grep -oE '^[a-z_][a-z0-9_]*' | sort -u)
if [ -z "$opt_members" ] || ! echo "$opt_members" | grep -qx 'num_threads'; then
  echo "docs_lint: found no RpmOptions members in ${opt_header} (pattern drift?)"
  fail=1
fi
opt_refs=$(grep -noE 'RpmOptions::[A-Za-z_][A-Za-z0-9_]*' \
             README.md DESIGN.md EXPERIMENTS.md docs/*.md)
for ref in $opt_refs; do
  name=${ref##*RpmOptions::}
  if ! echo "$opt_members" | grep -qx "$name"; then
    echo "docs_lint: ${ref%%:RpmOptions::*}: RpmOptions::${name} is not a member declared in ${opt_header}"
    fail=1
  fi
done

# --- 8. documented metrics and spans exist ----------------------------
# Histogram series carry _count/_sum/_bucket suffixes in the exposition
# excerpts; the family name is what the sources register. Spans are
# the backticked names under a subsystem that records spans.
doc_metrics=$(grep -oE 'rpm_(serve|stream|matcher|net)_[a-z_]+' \
                docs/OBSERVABILITY.md |
              sed -E 's/_(count|sum|bucket)$//' | sort -u)
for metric in $doc_metrics; do
  if ! echo "$metrics" | grep -qx "${metric}"; then
    echo "docs_lint: docs/OBSERVABILITY.md names metric ${metric}, which no source under src/ registers"
    fail=1
  fi
done
doc_spans=$(grep -oE '`(serve|stream|matcher|net|train)\.[a-z_]+`' \
              docs/OBSERVABILITY.md | tr -d '`' | sort -u)
for span in $doc_spans; do
  if ! echo "$spans" | grep -qx "${span}"; then
    echo "docs_lint: docs/OBSERVABILITY.md names span ${span}, which no source under src/ records"
    fail=1
  fi
done

# --- 9. cited repository paths exist ---------------------------------
# Every backticked path in the prose docs under src/, a module directory
# of src/ (cited as `core/...`), tests/, bench/, scripts/ or examples/
# must name an existing file, directory or glob match. A trailing
# command line (`bench/micro_kernels --json`) and a `:Suite.Test` or
# `:line` suffix are dropped first. `{h,cc}` expands to one path per
# alternative and `name.h,.cc` to name.h and name.cc. A path without an
# extension may name a binary built from a source of that stem
# (`bench/table1_accuracy`).
modules=$(cd src && ls -d */ | tr -d '/' | paste -sd '|')
path_exists() {  # path or glob, relative to the repo root
  compgen -G "$1" > /dev/null && return 0
  case "${1##*/}" in
    *.*|'') return 1 ;;
  esac
  compgen -G "$1.*" > /dev/null
}
path_refs=$(grep -noE '`[^`]+`' README.md DESIGN.md EXPERIMENTS.md docs/*.md |
            grep -E ":\`(src|tests|bench|scripts|examples|${modules})/")
cited_paths=0
while IFS= read -r ref; do
  [ -n "$ref" ] || continue
  where=${ref%%:\`*}
  path=${ref#*:\`}
  path=${path%\`}
  path=${path%% *}
  path=${path%%:*}
  cited=$path
  case "$path" in
    src/*|tests/*|bench/*|scripts/*|examples/*) ;;
    *) path="src/${path}" ;;
  esac
  if [[ "$path" =~ ^(.*)\{([^}]*)\}(.*)$ ]]; then
    IFS=',' read -ra alts <<< "${BASH_REMATCH[2]}"
    expanded=()
    for alt in "${alts[@]}"; do
      expanded+=("${BASH_REMATCH[1]}${alt}${BASH_REMATCH[3]}")
    done
  elif [[ "$path" == *,* ]]; then
    IFS=',' read -ra parts <<< "$path"
    expanded=("${parts[0]}")
    for ext in "${parts[@]:1}"; do
      expanded+=("${parts[0]%.*}${ext}")
    done
  else
    expanded=("$path")
  fi
  for p in "${expanded[@]}"; do
    cited_paths=$((cited_paths + 1))
    if ! path_exists "$p"; then
      echo "docs_lint: ${where}: \`${cited}\` names ${p}, which does not exist"
      fail=1
    fi
  done
done <<< "$path_refs"
if [ "$cited_paths" -eq 0 ]; then
  echo "docs_lint: found no cited repository paths in the docs (pattern drift?)"
  fail=1
fi

if [ "$fail" -ne 0 ]; then
  echo "docs_lint: FAILED"
  exit 1
fi
echo "docs_lint: OK ($(echo "$verbs" | wc -w | tr -d ' ') verbs, $(echo "$verb_bytes" | wc -w | tr -d ' ') verb bytes, $(echo "$metrics" | wc -w | tr -d ' ') metrics, $(echo "$spans" | wc -w | tr -d ' ') spans, $(echo "$opt_refs" | wc -w | tr -d ' ') option references, ${cited_paths} cited paths)"
