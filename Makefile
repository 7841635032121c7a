# Developer entry points. Tool versions are pinned here (and mirrored
# in .github/workflows/ci.yml) rather than as go.mod tool dependencies:
# the development container has no module proxy access, so x/vuln and
# x/tools cannot be vendored — cmd/distflowlint is stdlib-only for the
# same reason, and govulncheck is fetched only where the network exists
# (CI, developer machines) at the pinned version below.

GOVULNCHECK_VERSION ?= v1.1.4

.PHONY: all build vet lint test test-race bench-smoke vuln

all: build lint test

build:
	go build ./...

vet:
	go vet ./...

# The repository's invariant analyzers (DESIGN.md §12). Clean output
# and exit 0 are a merge requirement; intentional violations carry a
# reasoned //distflow:allow annotation.
lint: vet
	go run ./cmd/distflowlint ./...

test:
	go test ./...

test-race:
	go test -race ./...

# perfbench/ is its own module, so the targets above never compile it.
# Vet it and run its smoke test: every workload at tiny sizes, untraced
# and traced (~35 s on 2 vCPUs).
bench-smoke:
	cd perfbench && go vet ./... && go test ./...

# Needs network access to fetch the pinned scanner.
vuln:
	go install golang.org/x/vuln/cmd/govulncheck@$(GOVULNCHECK_VERSION)
	govulncheck ./...
