package footprint_test

import (
	"testing"

	"memhogs/internal/compiler"
	"memhogs/internal/footprint"
	"memhogs/internal/workload"
)

// certifyAll compiles one benchmark with the full schedule and
// certifies all four versions at paper-scale parameters.
func certifyAll(t *testing.T, spec *workload.Spec) map[footprint.Version]*footprint.Certificate {
	t.Helper()
	prog := spec.Program(nil)
	tgt := compiler.DefaultTarget(16<<10, 4800)
	c, err := compiler.Compile(prog, tgt)
	if err != nil {
		t.Fatalf("%s: %v", spec.Name, err)
	}
	certs := map[footprint.Version]*footprint.Certificate{}
	for _, v := range footprint.Versions() {
		certs[v] = footprint.Certify(prog, tgt, c.Hints(), v, footprint.Opts{Params: spec.Params})
	}
	return certs
}

// TestCertificateShapes pins the paper-level structure of the six
// certificates: which benchmarks certify under the 4800-page
// allotment with buffered releasing, and which provably overflow it
// (mgrid via imprecise releases, fftpde via its symbolic stride).
func TestCertificateShapes(t *testing.T) {
	fits := map[string]bool{
		"matvec": true, "embar": true, "buk": true, "cgm": true,
		"mgrid": false, "fftpde": false,
	}
	uncertified := map[string]bool{
		"matvec": false, "embar": false,
		"buk": true, "cgm": true, "mgrid": true, "fftpde": true,
	}
	for _, spec := range workload.All() {
		certs := certifyAll(t, spec)
		b := certs[footprint.VersionB]
		if b.ParamGaps {
			t.Errorf("%s: B certificate has parameter gaps at paper scale", spec.Name)
		}
		if b.BoundPages < 0 {
			t.Errorf("%s: B bound unresolved", spec.Name)
			continue
		}
		if got := b.BoundPages <= int64(b.Target.MemoryPages); got != fits[spec.Name] {
			t.Errorf("%s: B bound %d vs allotment %d, fits=%v, want fits=%v",
				spec.Name, b.BoundPages, b.Target.MemoryPages, got, fits[spec.Name])
		}
		if got := len(b.Uncertified) > 0; got != uncertified[spec.Name] {
			t.Errorf("%s: uncertified nests = %d, want any=%v", spec.Name, len(b.Uncertified), uncertified[spec.Name])
		}
		// O and P retain everything: every out-of-core benchmark clamps.
		for _, v := range []footprint.Version{footprint.VersionO, footprint.VersionP} {
			if !certs[v].Clamped {
				t.Errorf("%s %s: out-of-core benchmark should clamp, bound %d",
					spec.Name, v, certs[v].BoundPages)
			}
		}
		// Releasing never certifies above the no-release interpretation.
		for _, v := range []footprint.Version{footprint.VersionR, footprint.VersionB} {
			if certs[v].BoundPages >= 0 && certs[v].BoundPages > certs[footprint.VersionO].BoundPages {
				t.Errorf("%s: %s bound %d exceeds O bound %d",
					spec.Name, v, certs[v].BoundPages, certs[footprint.VersionO].BoundPages)
			}
		}
	}
}

// TestCertifyDeterministic demands byte-identical reports across two
// fresh compile+certify rounds — the property `memhog certify` needs
// across -j worker counts.
func TestCertifyDeterministic(t *testing.T) {
	for _, spec := range workload.All() {
		a := footprint.Report(certifyAll(t, spec))
		b := footprint.Report(certifyAll(t, spec))
		if a != b {
			t.Fatalf("%s: certificate report not deterministic", spec.Name)
		}
	}
}

// TestCertificateWithoutParams pins the degraded mode: bounds that
// need runtime parameters fall back to whole arrays, flag ParamGaps,
// and stay sound via the clamp.
func TestCertificateWithoutParams(t *testing.T) {
	spec, err := workload.ByName("cgm")
	if err != nil {
		t.Fatal(err)
	}
	prog := spec.Program(nil)
	tgt := compiler.DefaultTarget(16<<10, 4800)
	c, err := compiler.Compile(prog, tgt)
	if err != nil {
		t.Fatal(err)
	}
	cert := footprint.Certify(prog, tgt, c.Hints(), footprint.VersionB, footprint.Opts{})
	if !cert.ParamGaps {
		t.Fatal("cgm without params should report parameter gaps")
	}
	if cert.CertifiedPages > int64(tgt.MemoryPages) {
		t.Fatalf("certified %d exceeds the allotment", cert.CertifiedPages)
	}
}

// TestEmptyScheduleCertifies pins that versions O and P certify from
// an empty hint schedule (nothing to interpret but the footprints).
func TestEmptyScheduleCertifies(t *testing.T) {
	spec, err := workload.ByName("matvec")
	if err != nil {
		t.Fatal(err)
	}
	prog := spec.Program(nil)
	tgt := compiler.DefaultTarget(16<<10, 4800)
	cert := footprint.Certify(prog, tgt, nil, footprint.VersionO, footprint.Opts{Params: spec.Params})
	if cert.BoundPages <= 0 {
		t.Fatalf("O bound = %d, want positive", cert.BoundPages)
	}
	if !cert.Clamped {
		t.Fatal("out-of-core matvec under O should clamp")
	}
}
