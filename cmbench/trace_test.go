package main

import (
	"testing"
	"time"
)

func span(id, parent int, name string, start, end int) Span {
	return Span{ID: id, Parent: parent, Name: name, Start: time.Duration(start), End: time.Duration(end)}
}

func TestSelfTimesWithOverlappingChildren(t *testing.T) {
	spans := []Span{
		span(1, 0, "pipeline.analyze", 0, 100),
		// Two parallel children overlapping on [30,40], and one running
		// past the parent's end: covered = [10,60] + [90,100] = 60.
		span(2, 1, "rank.EIRCtx", 10, 40),
		span(3, 1, "rank.FitCtx", 30, 60),
		span(4, 1, "store.Flush", 90, 120),
		// A grandchild is subtracted from its own parent only.
		span(5, 2, "sgbrt.fit", 15, 25),
	}
	self := SelfTimes(spans)
	want := map[string]time.Duration{
		"pipeline": 40,             // 100 - 60
		"rank":     (30 - 10) + 30, // EIRCtx 30 minus grandchild 10, FitCtx 30
		"store":    30,
		"sgbrt":    10,
	}
	for layer, w := range want {
		if self[layer] != w {
			t.Errorf("self[%s] = %d, want %d", layer, self[layer], w)
		}
	}
}

func TestTracerRecordsParentAndRequest(t *testing.T) {
	tr := NewTracer()
	root := tr.Start("pipeline.analyze", 0, 7)
	child := tr.Start("collector.Collect", root, 7)
	tr.End(child)
	tr.End(root)
	spans := tr.Spans()
	if len(spans) != 2 || spans[1].Parent != root || spans[1].Req != 7 || spans[0].End < spans[1].End {
		t.Fatalf("spans = %+v", spans)
	}
	var nilTracer *Tracer
	if id := nilTracer.Start("x.y", 0, 0); id != 0 || nilTracer.End(id) != 0 || nilTracer.Spans() != nil {
		t.Error("a nil tracer recorded something")
	}
}
