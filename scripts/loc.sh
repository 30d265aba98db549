#!/bin/sh
# Counts the non-blank, non-comment lines of the module's Go program code:
# every .go file except tests, testdata and the nested bench module. This
# is the one definition of the line count ROADMAP.md and CHANGES.md quote.
#
#   sh scripts/loc.sh        # run from the repository root
set -eu
cd "$(dirname "$0")/.."
find . -name '*.go' -not -name '*_test.go' -not -path './bench/*' -not -path '*/testdata/*' |
	xargs cat | grep -v '^\s*$' | grep -v '^\s*//' | wc -l
