package telemetry_test

import (
	"reflect"
	"testing"

	"repro/internal/leakcheck"
	"repro/internal/telemetry"
	"repro/internal/telemetry/trace"
)

// ringSlot returns a zero value of the slot type behind owner's `ring`
// field — seq word and cells together, as the Ring lays them out.
func ringSlot(t *testing.T, owner any) any {
	t.Helper()
	ring, ok := reflect.TypeOf(owner).Elem().FieldByName("ring")
	if !ok {
		t.Fatalf("%T has no ring field", owner)
	}
	slots, ok := ring.Type.FieldByName("slots")
	if !ok || slots.Type.Kind() != reflect.Slice {
		t.Fatalf("%v has no slots slice", ring.Type)
	}
	return reflect.Zero(slots.Type.Elem()).Interface()
}

// TestRecorderSlotPinsNothing asserts, structurally, that neither user
// of the one Ring can retain payloads: a slot's type — for the flight
// recorder's events and for the tracer's completed traces — has no
// pointer-bearing field, so nothing a record call stores can keep a
// linear.Owned payload (or any heap object) alive. Actor names are
// interned to integer IDs precisely to preserve this property.
func TestRecorderSlotPinsNothing(t *testing.T) {
	leakcheck.NoPointers(t, "telemetry.Recorder ring slot", ringSlot(t, (*telemetry.Recorder)(nil)))
	leakcheck.NoPointers(t, "trace.Tracer ring slot", ringSlot(t, (*trace.Tracer)(nil)))
	leakcheck.NoPointers(t, "telemetry.Counter", telemetry.Counter{})
	leakcheck.NoPointers(t, "telemetry.Gauge", telemetry.Gauge{})
	leakcheck.NoPointers(t, "telemetry.Histogram", telemetry.Histogram{})
}
