# Developer entry points. Everything is plain `go` — no external tools.
#
#   make build   compile every package and command
#   make test    run the full test suite (tier-1 gate, with build)
#   make race    run the concurrency-relevant packages under the race
#                detector (slow: real inference under -race)
#   make vet     static analysis, and a gofmt check that fails on any
#                unformatted file
#   make bench   the serial-vs-parallel runner benchmarks
#   make fuzz-smoke  run every fuzz target for a short budget (the CI
#                fuzz stage; seed corpora live in testdata/fuzz/)
#   make trace-smoke  record a tiny traced campaign, replay it with
#                sfitrace, and diff the summary against its golden
#   make service-smoke  start sfid, drive a campaign through sfictl,
#                and diff the served result against the sfirun golden
#   make federation-smoke  boot a coordinator and two member daemons,
#                run a federated campaign, and diff the merged result
#                against the same golden; also asserts the fleet
#                metrics roll-up and the merged-trace strip-timing
#                identity against a single-node daemon
#   make chaos-smoke  federation smoke with a fault-injecting transport
#                on the coordinator's fleet RPCs (drops, 5xx, torn
#                bodies, a flapping link) and one induced straggler
#                member; asserts the merged result still matches the
#                single-node golden and the resilience layer's metrics
#                (retries, breaker state, speculative dispatch) moved
#   make portable  test the portable (non-assembly) nn kernels under
#                GOARCH=386, and fail if the arm64 build of nn, stats,
#                dataaware, dataset, oracle or train fuses a multiply-add
#                (it would compute other bits)
#   make docs-check  fail on dead relative links in README/docs
#   make vuln    scan the module against the Go vulnerability database
#                (needs network access; CI runs it on every push)
#   make verify  what CI would run: build + vet + test
#
# Override GO to pin a toolchain: `make test GO=go1.22`.

GO ?= go
FUZZTIME ?= 30s

.PHONY: build test race vet portable bench fuzz-smoke trace-smoke service-smoke federation-smoke chaos-smoke docs-check vuln verify

build:
	$(GO) build ./...

test: build
	$(GO) test ./...

race:
	$(GO) test -race ./internal/core/ ./internal/inject/ ./internal/nn/ ./internal/oracle/ ./internal/telemetry/ ./internal/service/ ./sfi/

vet:
	$(GO) vet ./...
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then echo "gofmt -l . lists unformatted files:"; echo "$$unformatted"; exit 1; fi

# The conv GEMM's row kernel is AVX assembly on amd64 hosts with AVX;
# amd64 without AVX and every other GOARCH run the Go loop (gemm.go),
# and GOARCH=386 runs that loop against the same tests on an amd64
# host. Go may fuse x*y + z on arm64, ppc64le, s390x and riscv64, which
# would round once where amd64 rounds twice, so the arm64 listing of
# every package whose floats reach a Result or a golden (the nn
# kernels, the statistics and data-aware planning, the synthetic
# dataset, the oracle, training) must hold no fused instruction, single
# or double precision.
PORTABLE_PKGS = nn stats dataaware dataset oracle train

portable:
	GOARCH=386 $(GO) test ./internal/nn
	@set -e; tmp=$$(mktemp); trap 'rm -f "$$tmp"' EXIT; \
	for p in $(PORTABLE_PKGS); do \
		GOARCH=arm64 $(GO) build -gcflags=cnnsfi/internal/$$p=-S ./internal/$$p 2>"$$tmp"; \
		grep -q "^cnnsfi/internal/$$p\..* STEXT" "$$tmp" || { echo "portable: no arm64 listing of internal/$$p"; exit 1; }; \
		if grep -E 'F(N)?M(ADD|SUB)[SD]' "$$tmp"; then \
			echo "portable: internal/$$p fuses multiply-adds on arm64"; exit 1; \
		fi; \
	done; \
	echo "portable: OK"

bench:
	$(GO) test -run xxx -bench 'BenchmarkParallel_' -benchtime 3x .

# `go test -fuzz` accepts one target per invocation, so loop over every
# Fuzz function in the packages that define them.
fuzz-smoke:
	@for pkg in ./internal/fp ./internal/stats; do \
		for target in $$($(GO) test $$pkg -list '^Fuzz' | grep '^Fuzz'); do \
			echo "fuzz $$pkg $$target"; \
			$(GO) test $$pkg -run '^$$' -fuzz "^$$target$$" -fuzztime $(FUZZTIME) || exit 1; \
		done; \
	done

# End-to-end trace smoke: record the Table III smallcnn campaigns with
# -trace at a single worker, replay the JSONL with sfitrace, and diff
# the timing-stripped summary against the checked-in golden. Stripped
# output is a pure function of (plan, seed, workers), so any drift means
# the trace schema or the engine's event stream changed.
trace-smoke:
	@set -e; tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; \
	$(GO) run ./cmd/sfirun -model smallcnn -substrate oracle -margin 0.05 \
		-workers 1 -table3 -trace "$$tmp/run.jsonl" >/dev/null; \
	$(GO) run ./cmd/sfitrace -in "$$tmp/run.jsonl" -strip-timing \
		| diff -u cmd/sfitrace/testdata/trace_smoke.golden -; \
	echo "trace-smoke: OK"

# End-to-end service smoke: boot sfid on an ephemeral port, submit the
# smallcnn data-aware campaign through sfictl, watch it to completion,
# and diff the served Result document against the checked-in golden.
# The golden is maintained by TestServiceSmokeGolden (cmd/sfid) as the
# direct-engine bytes for the same spec, so this asserts the service's
# bit-identity contract from outside the process boundary.
service-smoke:
	@set -e; tmp=$$(mktemp -d); pid=; \
	trap 'kill $$pid 2>/dev/null || true; rm -rf "$$tmp"' EXIT; \
	$(GO) build -o "$$tmp/sfid" ./cmd/sfid; \
	$(GO) build -o "$$tmp/sfictl" ./cmd/sfictl; \
	"$$tmp/sfid" -addr 127.0.0.1:0 -state-dir "$$tmp/state" 2>"$$tmp/log" & pid=$$!; \
	addr=; for i in $$(seq 1 100); do \
		addr=$$(sed -n 's|^sfid: listening on \(http://[^ ]*\) .*|\1|p' "$$tmp/log"); \
		[ -n "$$addr" ] && break; sleep 0.1; \
	done; \
	[ -n "$$addr" ] || { echo "service-smoke: sfid never came up"; cat "$$tmp/log"; exit 1; }; \
	id=$$("$$tmp/sfictl" -addr "$$addr" submit -model smallcnn -approach data-aware \
		-margin 0.05 -workers 1 2>/dev/null); \
	"$$tmp/sfictl" -addr "$$addr" watch -id "$$id" >/dev/null 2>&1; \
	"$$tmp/sfictl" -addr "$$addr" result -id "$$id" >"$$tmp/result.json"; \
	diff -u cmd/sfid/testdata/service_smoke.result.golden "$$tmp/result.json"; \
	kill -TERM $$pid; wait $$pid; \
	echo "service-smoke: OK"

# End-to-end federation smoke: boot a coordinator and two member
# daemons, wait for both registrations, submit the same campaign as
# service-smoke with -federated, and diff the merged Result against the
# identical golden. This asserts the coordinator's byte-identity
# contract — a federated merge over real daemons equals a single-node
# direct-engine run — from outside the process boundary. On top of the
# Result diff it asserts the observability surface: the coordinator's
# /metrics must report both members up and a nonzero fleet injection
# roll-up, and the merged correlated trace, stripped of timing, must be
# byte-identical to a single-node daemon's stripped trace of the same
# spec.
federation-smoke:
	@set -e; tmp=$$(mktemp -d); pids=; \
	trap 'kill $$pids 2>/dev/null || true; rm -rf "$$tmp"' EXIT; \
	$(GO) build -o "$$tmp/sfid" ./cmd/sfid; \
	$(GO) build -o "$$tmp/sfictl" ./cmd/sfictl; \
	$(GO) build -o "$$tmp/sfitrace" ./cmd/sfitrace; \
	"$$tmp/sfid" -addr 127.0.0.1:0 -state-dir "$$tmp/coord" -coordinator \
		-scrape-interval 200ms 2>"$$tmp/coord.log" & pids="$$pids $$!"; \
	addr=; for i in $$(seq 1 100); do \
		addr=$$(sed -n 's|^sfid: listening on \(http://[^ ]*\) .*|\1|p' "$$tmp/coord.log"); \
		[ -n "$$addr" ] && break; sleep 0.1; \
	done; \
	[ -n "$$addr" ] || { echo "federation-smoke: coordinator never came up"; cat "$$tmp/coord.log"; exit 1; }; \
	for m in 1 2; do \
		"$$tmp/sfid" -addr 127.0.0.1:0 -state-dir "$$tmp/member$$m" \
			-join "$$addr" -member-name "member$$m" -heartbeat-interval 200ms \
			2>"$$tmp/member$$m.log" & pids="$$pids $$!"; \
	done; \
	for i in $$(seq 1 100); do \
		n=$$("$$tmp/sfictl" -addr "$$addr" members -json 2>/dev/null | grep -c '"alive": true' || true); \
		[ "$$n" = 2 ] && break; sleep 0.1; \
	done; \
	[ "$$n" = 2 ] || { echo "federation-smoke: members never registered"; cat "$$tmp"/member*.log; exit 1; }; \
	id=$$("$$tmp/sfictl" -addr "$$addr" submit -model smallcnn -approach data-aware \
		-margin 0.05 -workers 1 -federated 2>/dev/null); \
	"$$tmp/sfictl" -addr "$$addr" watch -id "$$id" >/dev/null 2>&1; \
	"$$tmp/sfictl" -addr "$$addr" result -id "$$id" >"$$tmp/result.json"; \
	diff -u cmd/sfid/testdata/service_smoke.result.golden "$$tmp/result.json"; \
	for i in $$(seq 1 100); do \
		curl -sf "$$addr/metrics" >"$$tmp/metrics" || true; \
		grep -q 'sfid_member_up{[^}]*} 1' "$$tmp/metrics" \
			&& grep -Eq '^sfid_fleet_injections_total [1-9]' "$$tmp/metrics" && break; \
		sleep 0.1; \
	done; \
	grep -q 'sfid_member_up{[^}]*} 1' "$$tmp/metrics" \
		|| { echo "federation-smoke: coordinator /metrics never reported a member up"; cat "$$tmp/metrics"; exit 1; }; \
	grep -Eq '^sfid_fleet_injections_total [1-9]' "$$tmp/metrics" \
		|| { echo "federation-smoke: sfid_fleet_injections_total never left zero"; cat "$$tmp/metrics"; exit 1; }; \
	"$$tmp/sfid" -addr 127.0.0.1:0 -state-dir "$$tmp/single" 2>"$$tmp/single.log" & pids="$$pids $$!"; \
	saddr=; for i in $$(seq 1 100); do \
		saddr=$$(sed -n 's|^sfid: listening on \(http://[^ ]*\) .*|\1|p' "$$tmp/single.log"); \
		[ -n "$$saddr" ] && break; sleep 0.1; \
	done; \
	[ -n "$$saddr" ] || { echo "federation-smoke: single-node daemon never came up"; cat "$$tmp/single.log"; exit 1; }; \
	sid=$$("$$tmp/sfictl" -addr "$$saddr" submit -model smallcnn -approach data-aware \
		-margin 0.05 -workers 1 2>/dev/null); \
	"$$tmp/sfictl" -addr "$$saddr" watch -id "$$sid" >/dev/null 2>&1; \
	"$$tmp/sfictl" -addr "$$saddr" trace -id "$$sid" | "$$tmp/sfitrace" -strip-timing >"$$tmp/single.stripped"; \
	"$$tmp/sfictl" -addr "$$addr" trace -id "$$id" | "$$tmp/sfitrace" -strip-timing >"$$tmp/fed.stripped"; \
	diff -u "$$tmp/single.stripped" "$$tmp/fed.stripped"; \
	kill -TERM $$pids; wait $$pids; \
	echo "federation-smoke: OK"

# Chaos smoke: the federation smoke with the screws turned. The
# coordinator's outbound fleet RPCs run through the -chaos transport
# (dropped connections, synthesized 5xx, torn bodies, a link that flaps
# down 300ms of every 1500ms), member2 is made 7.5x slower than member1
# with -eval-delay (15ms against 2ms per draw), and the merged Result
# must still be byte-identical to the same single-node golden as
# service-smoke — retries, breaker trips, backup copies and all. The
# metrics greps pin that the resilience layer actually worked for it:
# retries were scheduled, every member carries a breaker series, and
# member2's window was backed up on member1. Once member1 has finished
# its own window, it would redo member2's whole window about 25s sooner
# than member2 finishes what it has left (well past the 10s
# -member-timeout the lease rule asks for); and while the chaos keeps
# member2 unreachable, its window's lease lapses after -member-timeout
# instead. Either way member1 backs it up.
chaos-smoke:
	@set -e; tmp=$$(mktemp -d); pids=; \
	trap 'kill $$pids 2>/dev/null || true; rm -rf "$$tmp"' EXIT; \
	$(GO) build -o "$$tmp/sfid" ./cmd/sfid; \
	$(GO) build -o "$$tmp/sfictl" ./cmd/sfictl; \
	"$$tmp/sfid" -addr 127.0.0.1:0 -state-dir "$$tmp/coord" -coordinator \
		-chaos "drop=0.1,err=0.1,truncate=0.05,delay=2ms,flap=1500ms/300ms,seed=7" \
		-federation-poll 100ms -member-rpc-timeout 2s -scrape-interval 200ms \
		2>"$$tmp/coord.log" & pids="$$pids $$!"; \
	addr=; for i in $$(seq 1 100); do \
		addr=$$(sed -n 's|^sfid: listening on \(http://[^ ]*\) .*|\1|p' "$$tmp/coord.log"); \
		[ -n "$$addr" ] && break; sleep 0.1; \
	done; \
	[ -n "$$addr" ] || { echo "chaos-smoke: coordinator never came up"; cat "$$tmp/coord.log"; exit 1; }; \
	"$$tmp/sfid" -addr 127.0.0.1:0 -state-dir "$$tmp/member1" -join "$$addr" \
		-member-name member1 -heartbeat-interval 200ms -eval-delay 2ms \
		2>"$$tmp/member1.log" & pids="$$pids $$!"; \
	"$$tmp/sfid" -addr 127.0.0.1:0 -state-dir "$$tmp/member2" -join "$$addr" \
		-member-name member2 -heartbeat-interval 200ms -eval-delay 15ms \
		2>"$$tmp/member2.log" & pids="$$pids $$!"; \
	for i in $$(seq 1 100); do \
		n=$$("$$tmp/sfictl" -addr "$$addr" members -json 2>/dev/null | grep -c '"alive": true' || true); \
		[ "$$n" = 2 ] && break; sleep 0.1; \
	done; \
	[ "$$n" = 2 ] || { echo "chaos-smoke: members never registered"; cat "$$tmp"/member*.log; exit 1; }; \
	id=$$("$$tmp/sfictl" -addr "$$addr" submit -model smallcnn -approach data-aware \
		-margin 0.05 -workers 1 -federated 2>/dev/null); \
	"$$tmp/sfictl" -addr "$$addr" watch -id "$$id" >/dev/null 2>&1; \
	"$$tmp/sfictl" -addr "$$addr" result -id "$$id" >"$$tmp/result.json"; \
	diff -u cmd/sfid/testdata/service_smoke.result.golden "$$tmp/result.json"; \
	curl -sf "$$addr/metrics" >"$$tmp/metrics"; \
	grep -Eq '^sfid_retries_total [1-9]' "$$tmp/metrics" \
		|| { echo "chaos-smoke: sfid_retries_total never left zero under chaos"; cat "$$tmp/metrics"; exit 1; }; \
	grep -q 'sfid_member_breaker_state{member=' "$$tmp/metrics" \
		|| { echo "chaos-smoke: no per-member breaker-state series"; cat "$$tmp/metrics"; exit 1; }; \
	grep -Eq '^sfid_speculative_parts_total [1-9]' "$$tmp/metrics" \
		|| { echo "chaos-smoke: the induced straggler was never speculatively re-dispatched"; cat "$$tmp/metrics"; exit 1; }; \
	kill -TERM $$pids; wait $$pids; \
	echo "chaos-smoke: OK"

# The doc-link checker is a root-level test; running it by name keeps
# the target fast and the logic in Go instead of shell.
docs-check:
	$(GO) test -run '^TestDocLinks$$' .

# govulncheck is fetched on demand (not a module dependency); it needs
# network access to both proxy.golang.org and vuln.go.dev, so the target
# is CI-oriented and safe to skip offline.
vuln:
	$(GO) run golang.org/x/vuln/cmd/govulncheck@latest ./...

verify: build vet test
