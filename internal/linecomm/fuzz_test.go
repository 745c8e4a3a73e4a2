package linecomm_test

import (
	"bytes"
	"reflect"
	"testing"

	"sparsehypercube/internal/core"
	"sparsehypercube/internal/linecomm"
	"sparsehypercube/internal/topo"
)

// bareNet hides every method but Order and HasEdge, so the validator
// cannot see a slot numbering and runs the map engine.
type bareNet struct{ linecomm.Network }

// FuzzValidate feeds arbitrary byte-derived schedules to the validator
// on two 16-vertex networks: Q_4, whose slots come from its CSR arrays,
// and the k = 2 sparse hypercube on 4 dimensions, whose slots are
// closed-form. Whatever the input, the serial validator must classify
// without panicking, a schedule it calls minimum-time must really inform
// everyone, and the streaming validator must return the identical Result
// on both engines (slotted via the bare network, map via bareNet).
func FuzzValidate(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4}, uint8(2))
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0, 9, 9}, uint8(1))
	f.Add([]byte{255, 254, 253}, uint8(3))
	cube, err := core.NewBase(4, 2)
	if err != nil {
		f.Fatal(err)
	}
	nets := []linecomm.Network{linecomm.GraphNetwork{G: topo.Hypercube(4)}, cube}
	f.Fuzz(func(t *testing.T, data []byte, kRaw uint8) {
		k := int(kRaw)%4 + 1
		s := scheduleFromBytes(data)
		for _, net := range nets {
			res := linecomm.Validate(net, k, s)
			if res.MinimumTime && res.Informed != 16 {
				t.Fatalf("minimum-time claimed with %d informed", res.Informed)
			}
			if res.Valid() != (len(res.Violations) == 0) {
				t.Fatal("Valid() inconsistent with Violations")
			}
			for _, streamNet := range []linecomm.Network{net, bareNet{net}} {
				sres := linecomm.ValidateStream(streamNet, k, s.Source, s.Stream())
				if !reflect.DeepEqual(res, sres) {
					t.Fatalf("stream/serial divergence on %T:\nserial: %+v\nstream: %+v", streamNet, res, sres)
				}
			}
		}
	})
}

// scheduleFromBytes decodes bytes into a schedule on a 16-vertex network:
// byte 0 = source, then alternating round lengths and path data.
func scheduleFromBytes(data []byte) *linecomm.Schedule {
	if len(data) == 0 {
		return &linecomm.Schedule{}
	}
	s := &linecomm.Schedule{Source: uint64(data[0] % 16)}
	i := 1
	for i < len(data) {
		nCalls := int(data[i]%4) + 1
		i++
		var round linecomm.Round
		for c := 0; c < nCalls && i < len(data); c++ {
			pathLen := int(data[i]%4) + 1
			i++
			var path []uint64
			for p := 0; p <= pathLen && i < len(data); p++ {
				path = append(path, uint64(data[i]%17)) // may exceed range: good
				i++
			}
			round = append(round, linecomm.Call{Path: path})
		}
		s.Rounds = append(s.Rounds, round)
		if len(s.Rounds) > 8 {
			break
		}
	}
	return s
}

// FuzzScheduleJSON: ReadJSON must never panic and must round-trip
// whatever it accepts.
func FuzzScheduleJSON(f *testing.F) {
	f.Add([]byte(`{"source":0,"rounds":[[[0,1]]]}`))
	f.Add([]byte(`{"source":999}`))
	f.Add([]byte(`[]`))
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := linecomm.ReadJSON(bytes.NewReader(data))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := linecomm.WriteJSON(&buf, s); err != nil {
			t.Fatalf("accepted schedule failed to serialise: %v", err)
		}
		s2, err := linecomm.ReadJSON(&buf)
		if err != nil {
			t.Fatalf("round trip failed: %v", err)
		}
		if s2.Source != s.Source || len(s2.Rounds) != len(s.Rounds) {
			t.Fatal("round trip changed schedule")
		}
	})
}

// FuzzReadRoundBatch: the session-body decoder takes untrusted bytes.
// It must never panic, and any batch it accepts must re-encode through
// WriteRoundBatch and decode to an equal batch.
func FuzzReadRoundBatch(f *testing.F) {
	f.Add([]byte(`{"rounds":[[[0,1]],[[0,2],[1,3]]]}`))
	f.Add([]byte(`{"rounds":[]}`))
	f.Add([]byte(`{"rounds":[[],null]}`))
	f.Add([]byte(`{"rounds":[[[0]]]}`))
	f.Add([]byte(`{"rounds":[[[18446744073709551615,0,7]]]} trailing`))
	f.Add([]byte(`null`))
	f.Fuzz(func(t *testing.T, data []byte) {
		rounds, err := linecomm.ReadRoundBatch(bytes.NewReader(data))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := linecomm.WriteRoundBatch(&buf, rounds); err != nil {
			t.Fatalf("accepted batch failed to serialise: %v", err)
		}
		again, err := linecomm.ReadRoundBatch(&buf)
		if err != nil {
			t.Fatalf("re-encoded batch rejected: %v\n%s", err, buf.Bytes())
		}
		if !reflect.DeepEqual(rounds, again) {
			t.Fatalf("round trip changed batch:\nfirst:  %+v\nsecond: %+v", rounds, again)
		}
	})
}
