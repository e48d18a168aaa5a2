#!/usr/bin/env bash
# Reachability gate: every non-test function of the shogun module must be
# linked into some binary (a cmd/*, an examples/* or perfbench), or be on
# ci/reachable/allow.txt with its reason. A function that only tests, or
# nothing, calls fails the gate; delete it, or allowlist it as test
# support or public API.
#
# The scanner (ci/reachable, a stdlib-only module of its own) builds each
# binary with inlining off in the module's packages and compares its
# `go tool nm` symbols with a go/parser list of the declared functions.
# It also fails on a binary that links reflect's method lookup (as
# text/template and html/template do): the linker then keeps every
# exported method of any type that reaches an interface, and the scan
# could not see those methods.
#
# Usage: ci/check_reachable.sh
set -euo pipefail

root=$(cd "$(dirname "$0")/.." && pwd)
cd "$root/ci/reachable"
go test -count=1 .
go run . "$root" "$root/perfbench"
