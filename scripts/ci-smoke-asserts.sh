#!/usr/bin/env bash
# ci-smoke-asserts.sh: the serving-smoke assertions CI runs against a live
# facs-server mid-burst, consolidated from inline workflow one-liners so
# they can be reviewed, shellchecked and run locally:
#
#   scripts/ci-smoke-asserts.sh admits /tmp/metrics.txt
#   scripts/ci-smoke-asserts.sh surface /tmp/metrics.txt
#   scripts/ci-smoke-asserts.sh hotcells /tmp/hotcells.json
#
# admits      a /metrics dump must show a non-zero total of per-cell
#             facs_admits_total counters (admissions actually flowed).
# surface     a /metrics dump of a surface-backed fuzzy daemon must show
#             that every cell shares one compiled surface pair: exactly 2
#             facs_surface_cache_misses_total (FLC1 and FLC2 compiled
#             once) and 2 x (cells - 1) facs_surface_cache_hits_total,
#             with cells counted from the facs_capacity_bu gauge.
# hotcells    a /hotcells JSON dump must rank cells by descending,
#             positive demand rate.
set -euo pipefail

usage() {
	echo "usage: $0 {admits <metrics-file>|surface <metrics-file>|hotcells <hotcells-json>}" >&2
	exit 2
}

[ $# -eq 2 ] || usage
cmd=$1
arg=$2

case "$cmd" in
admits)
	awk '$1 ~ /^facs_admits_total{/ { sum += $2 } END { exit !(sum > 0) }' "$arg"
	echo "admit counters ok: non-zero facs_admits_total"
	;;
surface)
	awk '
		$1 ~ /^facs_capacity_bu{/ { cells++ }
		$1 == "facs_surface_cache_misses_total" { misses = $2; seen++ }
		$1 == "facs_surface_cache_hits_total" { hits = $2; seen++ }
		END {
			printf "surface cache over %d cells: misses %d, hits %d\n", cells, misses, hits
			exit !(seen == 2 && cells > 0 && misses == 2 && hits == 2 * (cells - 1))
		}' "$arg"
	;;
hotcells)
	python3 - "$arg" <<-'EOF'
		import json, sys
		doc = json.load(open(sys.argv[1]))
		rates = [c['rate'] for c in doc['cells']]
		assert rates, 'empty hotcells ranking'
		assert rates == sorted(rates, reverse=True), f'ranking not descending: {rates}'
		assert rates[0] > 0, f'no demand recorded mid-burst: {rates}'
		print('hotcells ranking ok:', rates)
	EOF
	;;
*)
	usage
	;;
esac
