package orchestrator

import (
	"context"
	"io"
	"os"
	"os/exec"
	"strings"
)

// A Runner executes one worker command somewhere — this machine,
// another host, a container — streaming its stdout and stderr back to
// the orchestrator. Implementations must honour ctx cancellation (the
// orchestrator cancels surviving workers once a shard is lost for
// good) and return a non-nil error for any non-zero exit, which is
// what triggers the retry policy. The orchestrator supplies complete
// argv vectors; runners never interpret them.
type Runner interface {
	// Name labels the runner in progress and error output.
	Name() string
	// Run executes argv to completion, wiring the process's stdout and
	// stderr to the given writers.
	Run(ctx context.Context, argv []string, stdout, stderr io.Writer) error
}

// Local runs worker commands as subprocesses of this process. The
// pool pdsweep builds without -hosts is N of them, giving
// single-machine sweeps N-way parallelism with no setup.
type Local struct {
	// Dir is the working directory ("" = inherit).
	Dir string
	// Env is appended to the inherited environment. pdsweep uses it to
	// cap each local worker's GOMAXPROCS so N workers share the
	// machine instead of each spawning a full-width simulation pool.
	Env []string
	// Label, when non-empty, overrides Name — pools with several local
	// hosts use it to tell them apart in reports and ledger events.
	Label string
}

// Name implements Runner.
func (l Local) Name() string {
	if l.Label != "" {
		return l.Label
	}
	return "local"
}

// Run implements Runner.
func (l Local) Run(ctx context.Context, argv []string, stdout, stderr io.Writer) error {
	cmd := exec.CommandContext(ctx, argv[0], argv[1:]...)
	cmd.Dir = l.Dir
	if len(l.Env) > 0 {
		cmd.Env = append(os.Environ(), l.Env...)
	}
	cmd.Stdout = stdout
	cmd.Stderr = stderr
	killGroup(cmd)
	return cmd.Run()
}

// SSH runs worker commands on a remote host through the system ssh
// client, inheriting the user's ssh config (keys, jump hosts,
// multiplexing). The campaign binary must exist on the remote host,
// and the orchestrator's store root must be a path shared between the
// orchestrator and every ssh runner (NFS or similar), because the
// workers write the one store the assembly step reads locally.
type SSH struct {
	// Host is the ssh destination (host, user@host, or an ssh_config
	// alias).
	Host string
	// Options are extra arguments placed before the host (e.g. "-p",
	// "2222", "-o", "BatchMode=yes").
	Options []string
	// Dir, when non-empty, is the remote working directory to cd into
	// before running the command.
	Dir string
}

// Name implements Runner.
func (s SSH) Name() string { return "ssh:" + s.Host }

// Run implements Runner.
func (s SSH) Run(ctx context.Context, argv []string, stdout, stderr io.Writer) error {
	cmd := exec.CommandContext(ctx, "ssh", s.args(argv)...)
	cmd.Stdout = stdout
	cmd.Stderr = stderr
	// Cancellation kills the local ssh client (and anything it
	// spawned); the remote worker may linger until its next write
	// fails. Its shard store stays consistent either way — cells are
	// atomic — so a resumed sweep is unaffected.
	killGroup(cmd)
	return cmd.Run()
}

// args builds the ssh argv. The `--` sits before the destination —
// OpenSSH stops option parsing at the destination, so a later `--`
// would become the first word of the remote command and the remote
// shell would reject it.
func (s SSH) args(argv []string) []string {
	remote := shellJoin(argv)
	if s.Dir != "" {
		remote = "cd " + shellQuote(s.Dir) + " && " + remote
	}
	return append(append(append([]string{}, s.Options...), "--", s.Host), remote)
}

// shellJoin renders argv as one POSIX shell command line, each word
// single-quoted, for the remote side of ssh.
func shellJoin(argv []string) string {
	words := make([]string, len(argv))
	for i, a := range argv {
		words[i] = shellQuote(a)
	}
	return strings.Join(words, " ")
}

func shellQuote(s string) string {
	return "'" + strings.ReplaceAll(s, "'", `'\''`) + "'"
}
