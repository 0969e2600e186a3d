package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"cfdprop/internal/daemon"
	"cfdprop/internal/spec"
)

// TestDaemonLifecycle is the end-to-end smoke test for the real binary:
// build propcfdd, start it on a free port, run queries through the
// retrying client, then SIGTERM it and require a clean drain (readiness
// refusal for new work, "drained, exiting" on stderr, exit status 0).
func TestDaemonLifecycle(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs a child process")
	}
	bin := filepath.Join(t.TempDir(), "propcfdd")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	cmd := exec.CommandContext(ctx, bin, "-addr", "127.0.0.1:0", "-grace", "5s")
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer cmd.Process.Kill()

	// The daemon announces its bound address on the first stdout line.
	line, err := bufio.NewReader(stdout).ReadString('\n')
	if err != nil {
		t.Fatalf("reading listen line: %v (stderr: %s)", err, stderr.String())
	}
	addr := strings.TrimSpace(strings.TrimPrefix(line, "propcfdd listening on "))
	if addr == line {
		t.Fatalf("unexpected startup line %q", line)
	}
	client := &daemon.Client{Base: "http://" + addr}

	if err := client.Ready(ctx); err != nil {
		t.Fatalf("daemon not ready: %v", err)
	}

	const specJSON = `{
	  "relations": [{"name": "R1", "attrs": ["zip", "street", "city"]}],
	  "cfds": ["R1(zip -> street)", "R1(zip -> city)"],
	  "view": {"name": "R", "atoms": [{"source": "R1", "attrs": ["zip", "street", "city"]}],
	           "projection": ["zip", "street", "city"]}
	}`
	var problem spec.Problem
	if err := json.Unmarshal([]byte(specJSON), &problem); err != nil {
		t.Fatal(err)
	}

	// Register once, then query by fingerprint — the warm-session path.
	reg, err := client.Register(ctx, &daemon.UniverseRequest{Spec: &problem})
	if err != nil {
		t.Fatalf("register: %v", err)
	}
	resp, err := client.Check(ctx, &daemon.CheckRequest{
		Universe: reg.Universe,
		Phis:     []string{"R(zip -> street)", "R(street -> zip)"},
	})
	if err != nil {
		t.Fatalf("check: %v", err)
	}
	if len(resp.Results) != 2 || !resp.Results[0].Propagated || resp.Results[1].Propagated {
		t.Fatalf("unexpected results: %+v", resp.Results)
	}
	imp, err := client.Implies(ctx, &daemon.ImpliesRequest{Universe: reg.Universe, Phi: "R(zip -> city)"})
	if err != nil {
		t.Fatalf("implies: %v", err)
	}
	if !imp.Implied {
		t.Fatal("cover must imply a source CFD preserved by the identity view")
	}

	// SIGTERM: drain, then exit 0 with the drain banner on stderr.
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if err := cmd.Wait(); err != nil {
		t.Fatalf("daemon exited non-zero: %v\nstderr: %s", err, stderr.String())
	}
	if !strings.Contains(stderr.String(), "drained, exiting") {
		t.Fatalf("drain banner missing from stderr: %s", stderr.String())
	}

	// The port is actually released.
	if err := client.Ready(context.Background()); err == nil {
		t.Fatal("daemon still serving after drain")
	}
}
