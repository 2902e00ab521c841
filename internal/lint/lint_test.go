package lint_test

import (
	"path/filepath"
	"testing"

	"github.com/gpf-go/gpf/internal/lint"
	"github.com/gpf-go/gpf/internal/lint/analysistest"
)

func fixture(name string) string {
	return filepath.Join("testdata", "src", name)
}

func TestSharedCapture(t *testing.T) {
	analysistest.Run(t, fixture("sharedcapture"), "gpf/fixture/sharedcapture", lint.SharedCapture)
}

func TestMapIter(t *testing.T) {
	analysistest.Run(t, fixture("mapiter"), "github.com/gpf-go/gpf/internal/engine/mapiterfixture", lint.MapIter)
}

func TestCodecErr(t *testing.T) {
	analysistest.Run(t, fixture("codecerr"), "gpf/fixture/codecerr", lint.CodecErr)
}

// TestColfmtCodecFixture runs codecerr over the columnar-codec fixture: the
// colfmt serializer calls are watched codec surfaces.
func TestColfmtCodecFixture(t *testing.T) {
	analysistest.Run(t, fixture("colfmtcodec"), "github.com/gpf-go/gpf/internal/colfmt/colfmtcodecfixture", lint.CodecErr)
}

// TestMprocTransportFixture runs codecerr and sharedcapture together over
// the shuffle-transport fixture, loaded under a package path inside
// internal/engine/exec/mproc: frame read/write calls are watched codec
// surfaces, and op closures built from transport code obey the captured-write
// rule.
func TestMprocTransportFixture(t *testing.T) {
	analysistest.Run(t, fixture("mproctransport"), "github.com/gpf-go/gpf/internal/engine/exec/mproc/transportfixture", lint.CodecErr, lint.SharedCapture)
}

func TestGoLeak(t *testing.T) {
	analysistest.Run(t, fixture("goleak"), "github.com/gpf-go/gpf/internal/engine/goleakfixture", lint.GoLeak)
}

// TestScopeFilters asserts that path-scoped analyzers stay quiet outside
// their packages: the scopecheck fixture contains a mapiter violation but is
// loaded under an unrelated import path, so the whole suite must produce zero
// diagnostics (the fixture has no want comments).
func TestScopeFilters(t *testing.T) {
	analysistest.Run(t, fixture("scopecheck"), "example.com/elsewhere/scopecheck", lint.Suite()...)
}
