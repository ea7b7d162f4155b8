package bench

import (
	"os/exec"
	"strings"
)

// buildCommit names the source revision a benchmark artifact was
// measured on: the checkout's HEAD as git reports it, with "-dirty"
// appended when tracked files differ from it, or "unknown" outside a
// git checkout. It asks git rather than the binary's build info because
// `go run`, which the Makefile bench targets use, stamps no VCS data.
func buildCommit() string {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	rev := strings.TrimSpace(string(out))
	if exec.Command("git", "diff", "--quiet", "HEAD").Run() != nil {
		rev += "-dirty"
	}
	return rev
}
