package main

import (
	"testing"
	"time"
)

func TestOptionsCheck(t *testing.T) {
	valid := options{
		device: "disk", duration: 30 * time.Second, interval: 20 * time.Millisecond,
		deadline: 15 * time.Millisecond, streams: 4, noiseSize: 1 << 20,
	}
	for _, tc := range []struct {
		name string
		edit func(*options)
		ok   bool
	}{
		{"defaults", func(*options) {}, true},
		{"ssd", func(o *options) { o.device = "ssd" }, true},
		{"no noise", func(o *options) { o.streams = 0 }, true},
		{"largest cache", func(o *options) { o.cache = maxCachePages }, true},
		{"largest noise IO", func(o *options) { o.noiseSize = maxNoiseSize }, true},
		{"no deadline", func(o *options) { o.deadline = 0 }, true},
		{"unknown device", func(o *options) { o.device = "tape" }, false},
		{"interval 0", func(o *options) { o.interval = 0 }, false},
		{"negative interval", func(o *options) { o.interval = -time.Millisecond }, false},
		{"duration 0", func(o *options) { o.duration = 0 }, false},
		{"negative noise size", func(o *options) { o.noiseSize = -4096 }, false},
		{"noise size 0", func(o *options) { o.noiseSize = 0 }, false},
		{"noise IO past the limit", func(o *options) { o.noiseSize = maxNoiseSize + 1 }, false},
		{"negative noise streams", func(o *options) { o.streams = -1 }, false},
		{"negative cache", func(o *options) { o.cache = -5 }, false},
		{"cache past the limit", func(o *options) { o.cache = maxCachePages + 1 }, false},
	} {
		o := valid
		tc.edit(&o)
		if err := o.check(); (err == nil) != tc.ok {
			t.Errorf("%s: check() = %v, want ok=%v", tc.name, err, tc.ok)
		}
	}
}
