// Golden input for the codec-symmetry analyzer. The package is named
// distshp so the deterministic-package gate applies by name; the Registry
// and ValueCodec shapes mirror the pregel typed-codec plane.
package distshp

type ValueCodec interface {
	Append(buf []byte, v any) ([]byte, error)
	Decode(data []byte) (any, int, error)
}

type Registry struct{ codecs []ValueCodec }

func (r *Registry) Register(sample any, c interface{}) {}

type msgPing struct{ N int }
type msgLoud struct{ N int }
type msgQuiet struct{ N int }

// pingCodec is a full encode/decode pair with fuzz coverage: clean.
type pingCodec struct{}

func (pingCodec) Append(buf []byte, v any) ([]byte, error) { return buf, nil }
func (pingCodec) Decode(data []byte) (any, int, error)     { return msgPing{}, 0, nil }

// halfCodec encodes but cannot decode.
type halfCodec struct{}

func (halfCodec) Append(buf []byte, v any) ([]byte, error) { return buf, nil }

// quietCodec is a full pair, but nothing fuzzes it and no fuzz target
// references its registry constructor.
type quietCodec struct{}

func (quietCodec) Append(buf []byte, v any) ([]byte, error) { return buf, nil }
func (quietCodec) Decode(data []byte) (any, int, error)     { return msgQuiet{}, 0, nil }

// newReg is the wire registry: FuzzPingCodec references it, so every
// registration here has fuzz coverage.
func newReg() *Registry {
	r := &Registry{}
	r.Register(msgPing{}, pingCodec{})
	r.Register(msgLoud{}, halfCodec{}) // want "missing Decode"
	return r
}

// newQuietReg is never referenced by a fuzz target.
func newQuietReg() *Registry {
	r := &Registry{}
	r.Register(msgQuiet{}, quietCodec{}) // want "no fuzz target"
	r.Register(msgQuiet{}, quietCodec{}) //shp:nocodec(golden: test-only scaffolding, never sees hostile bytes)
	return r
}
