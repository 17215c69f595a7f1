package main

import (
	"strings"
	"testing"
)

func TestResolve(t *testing.T) {
	var all []string
	for _, e := range experiments {
		all = append(all, e.name)
	}
	for _, tc := range []struct {
		arg     string
		want    []string
		wantErr string // substring of the error; "" means no error
	}{
		{arg: "all", want: all},
		{arg: "fig12", want: []string{"fig12"}},
		{arg: "chainscale,fig12,table1", want: []string{"fig12", "table1", "chainscale"}}, // index order
		{arg: " Fig12 ,WORSTCASE", want: []string{"fig12", "worstcase"}},
		{arg: "fig12,fig12", want: []string{"fig12"}},
		{arg: "fig12,all", want: all},
		{arg: "fig12,chaoss,table1", wantErr: `"chaoss"`},
		{arg: "serve", wantErr: `"serve"`}, // retired: benchmark/ serve-rate and serve-peak
		{arg: "", wantErr: `""`},
		{arg: "fig12,", wantErr: `""`},
	} {
		got, err := resolve(tc.arg)
		if tc.wantErr != "" {
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("resolve(%q) error = %v, want one naming %s", tc.arg, err, tc.wantErr)
			}
			if got != nil {
				t.Errorf("resolve(%q) selected %d experiments alongside its error", tc.arg, len(got))
			}
			continue
		}
		if err != nil {
			t.Errorf("resolve(%q): %v", tc.arg, err)
			continue
		}
		var names []string
		for _, e := range got {
			names = append(names, e.name)
		}
		if strings.Join(names, ",") != strings.Join(tc.want, ",") {
			t.Errorf("resolve(%q) = %v, want %v", tc.arg, names, tc.want)
		}
	}
	if len(experiments) != 13 {
		t.Errorf("the index holds %d experiments, want the paper's thirteen", len(experiments))
	}
}
