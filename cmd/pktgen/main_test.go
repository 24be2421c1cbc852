package main

import (
	"io"
	"strings"
	"testing"
	"time"
)

func TestParseArgs(t *testing.T) {
	cases := []struct {
		name    string
		args    []string
		wantErr string // empty = valid
	}{
		{name: "count", args: []string{"-target", "127.0.0.1:9000", "-pps", "60000", "-count", "30000"}},
		{name: "duration", args: []string{"-target", "127.0.0.1:9000", "-duration", "2s", "-sockets", "32"}},
		{name: "unpaced", args: []string{"-target", "127.0.0.1:9000", "-pps", "0", "-count", "10"}},
		{name: "no target", args: []string{"-pps", "1000"}, wantErr: "-target is required"},
		{name: "negative pps", args: []string{"-target", "x:1", "-pps", "-1"}, wantErr: "must be >= 0"},
		{name: "no bound", args: []string{"-target", "x:1", "-duration", "0"}, wantErr: "-duration must be > 0"},
		{name: "zero sockets", args: []string{"-target", "x:1", "-sockets", "0"}, wantErr: "must be >= 1"},
		{name: "stray argument", args: []string{"-target", "x:1", "extra"}, wantErr: "unexpected argument"},
		{name: "pipeline flag", args: []string{"-target", "x:1", "-workers", "4"}, wantErr: "not defined: -workers"},
		{name: "retired batch", args: []string{"-target", "x:1", "-batch", "8"}, wantErr: "not defined: -batch"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			gen, _, err := parseArgs(tc.args, io.Discard)
			if tc.wantErr == "" {
				if err != nil || gen.Target != "127.0.0.1:9000" {
					t.Fatalf("parseArgs = %+v, %v", gen, err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("error = %v, want containing %q", err, tc.wantErr)
			}
		})
	}
	gen, d, err := parseArgs([]string{"-target", "h:1", "-flows", "128"}, io.Discard)
	if err != nil || gen.Flows != 128 || gen.Sockets != 16 || gen.PPS != 100000 || d != 10*time.Second {
		t.Fatalf("parseArgs = %+v, %s, %v", gen, d, err)
	}
}
