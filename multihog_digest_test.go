package memhogs

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"
)

// TestMultiHogDigests pins the exact bytes of the two multi-hog
// drivers' rendered output: the duel (two hogs, no interactive task)
// and the quick multi-tenant campaign (a hog population on the
// NUMA-sharded machine against an open-loop job stream). The worker
// count checks elsewhere only prove these tables deterministic; this
// proves them unchanged. A deliberate behaviour change must update the
// digests here and say why.
func TestMultiHogDigests(t *testing.T) {
	cases := []struct {
		name string
		want string
		run  func() (string, error)
	}{
		{
			"duel matvec mgrid",
			"c4999ffddacf1d019c574ed04d90f79bbce87d5b7f7b5a0fd7cb33fc0846d402",
			func() (string, error) { return Duel("matvec", "mgrid", TestMachine()) },
		},
		{
			"tenants matvec fftpde",
			"6f590dee76fd3972e345a033f72d091e085d15028aeb3e6f445618b4d8166c12",
			func() (string, error) { return Campaign{Quick: true, Workers: 1}.Tenants("matvec", "fftpde") },
		},
	}
	for _, c := range cases {
		out, err := c.run()
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		sum := sha256.Sum256([]byte(out))
		if got := hex.EncodeToString(sum[:]); got != c.want {
			t.Errorf("%s: sha256 %s, want %s\n%s", c.name, got, c.want, out)
		}
	}
}
