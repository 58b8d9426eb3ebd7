package harness

import (
	"errors"
	"testing"

	"nifdy/internal/core"
	"nifdy/internal/dist"
)

func TestCheckDistSupport(t *testing.T) {
	base := func() BuildOpts { return BuildOpts{Net: Mesh2D(), Kind: NIFDY} }

	if err := CheckDistSupport(base()); err != nil {
		t.Fatalf("plain NIFDY mesh should be dist-supported, got %v", err)
	}

	cases := []struct {
		name   string
		mutate func(*BuildOpts)
	}{
		{"drop", func(o *BuildOpts) { o.Drop = 0.01 }},
		{"retransmit", func(o *BuildOpts) {
			o.Params = core.Config{O: 2, B: 4, D: 2, W: 8, Retransmit: true}
		}},
		{"dialog takeover", func(o *BuildOpts) {
			o.Params = core.Config{O: 2, B: 4, D: 2, W: 8, DialogTakeover: 1000}
		}},
		{"pfc kind", func(o *BuildOpts) { o.Kind = PFC }},
		{"dcqcn kind", func(o *BuildOpts) { o.Kind = DCQCN }},
		{"explicit pfc fabric", func(o *BuildOpts) { o.Fabric.PFC.Enable = true }},
		{"explicit ecn fabric", func(o *BuildOpts) { o.Fabric.ECN.Enable = true }},
	}
	for _, c := range cases {
		opts := base()
		c.mutate(&opts)
		err := CheckDistSupport(opts)
		if err == nil {
			t.Errorf("%s: want unsupported-feature error, got nil", c.name)
			continue
		}
		if !errors.Is(err, dist.ErrUnsupportedFeature) {
			t.Errorf("%s: error %v does not wrap dist.ErrUnsupportedFeature", c.name, err)
		}
	}
}

func TestDistSpecValidate(t *testing.T) {
	good := DistSpec{Net: "mesh2d", Kind: int(NIFDY), Shards: 1, Window: 1}
	if err := good.Validate(); err != nil {
		t.Fatalf("mesh2d/NIFDY spec should validate, got %v", err)
	}

	badKind := good
	badKind.Kind = int(PFC)
	if err := badKind.Validate(); !errors.Is(err, dist.ErrUnsupportedFeature) {
		t.Errorf("PFC spec: got %v, want ErrUnsupportedFeature", err)
	}

	badNet := good
	badNet.Net = "flownet"
	if err := badNet.Validate(); !errors.Is(err, dist.ErrUnsupportedFeature) {
		t.Errorf("flownet spec: got %v, want ErrUnsupportedFeature", err)
	}
}

// TestDistLaunchRejectsBeforeSpawn: an unsupported spec must fail in the
// launcher, typed, before any worker process is spawned.
func TestDistLaunchRejectsBeforeSpawn(t *testing.T) {
	_, err := distLaunch(DistSpec{Net: "mesh2d", Kind: int(DCQCN), Shards: 1, Window: 1}, 2)
	if !errors.Is(err, dist.ErrUnsupportedFeature) {
		t.Fatalf("distLaunch: got %v, want ErrUnsupportedFeature", err)
	}
}
