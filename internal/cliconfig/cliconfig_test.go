package cliconfig

import (
	"flag"
	"reflect"
	"testing"

	"netmaster/internal/cfgerr"
	"netmaster/internal/power"
)

func TestResolveModel(t *testing.T) {
	for _, tc := range []struct {
		name string
		want string // model name; "" wants an error
	}{
		{"3g", power.Model3G().Name},
		{"lte", power.ModelLTE().Name},
		{"", ""},
		{"5g", ""},
		{"LTE", ""},
	} {
		m, err := ResolveModel(tc.name)
		switch {
		case tc.want == "" && err == nil:
			t.Errorf("ResolveModel(%q) = %s, want an error", tc.name, m.Name)
		case tc.want != "" && err != nil:
			t.Errorf("ResolveModel(%q): %v", tc.name, err)
		case tc.want != "" && m.Name != tc.want:
			t.Errorf("ResolveModel(%q) = %s, want %s", tc.name, m.Name, tc.want)
		}
	}
}

// TestWiFiResolve: every rejected value comes back as a typed
// cfgerr field error naming the flag, all of them at once.
func TestWiFiResolve(t *testing.T) {
	for _, tc := range []struct {
		model    string
		coverage float64
		wantNIC  bool
		bad      []string // flags the error must name
	}{
		{"", 0, false, nil},
		{"", 1, false, nil},
		{"wifi", 0, true, nil},
		{"wifi", 0.6, true, nil},
		{"wifi", 1, true, nil},
		{"wimax", 0.5, false, []string{"wifi-model"}},
		{"WiFi", 0.5, false, []string{"wifi-model"}},
		{"", -0.1, false, []string{"wifi-coverage"}},
		{"wifi", 1.5, false, []string{"wifi-coverage"}},
		{"wimax", 2, false, []string{"wifi-model", "wifi-coverage"}},
	} {
		o := WiFi{WiFiModelName: tc.model, WiFiCoverage: tc.coverage}
		m, err := o.Resolve()
		if len(tc.bad) == 0 {
			if err != nil {
				t.Errorf("%+v: %v", o, err)
			} else if (m != nil) != tc.wantNIC {
				t.Errorf("%+v: NIC model %v, want one: %v", o, m, tc.wantNIC)
			}
			continue
		}
		if err == nil || m != nil {
			t.Errorf("%+v: got %v, %v; want no model and an error", o, m, err)
			continue
		}
		for _, field := range tc.bad {
			if !cfgerr.Is(err, "cliconfig.WiFi", field) {
				t.Errorf("%+v: error %q carries no cliconfig.WiFi.%s field error", o, err, field)
			}
		}
		if _, ok := cfgerr.Field(err); !ok {
			t.Errorf("%+v: error %q is not a typed field error", o, err)
		}
	}
}

func TestServeBackendList(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want []string
	}{
		{"", nil},
		{",", nil},
		{" , ,", nil},
		{"http://a", []string{"http://a"}},
		{"http://a,http://b", []string{"http://a", "http://b"}},
		{"http://a,http://b,", []string{"http://a", "http://b"}},
		{",http://a,,http://b,,", []string{"http://a", "http://b"}},
		{" http://a , http://b ", []string{"http://a", "http://b"}},
	} {
		o := Serve{Backends: tc.in}
		if got := o.BackendList(); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("BackendList(%q) = %q, want %q", tc.in, got, tc.want)
		}
	}
}

// registrar is an option set with a Register method.
type registrar interface{ Register(*flag.FlagSet) }

// TestRegisterDefaultsMatch: for every option set, each flag's
// advertised default is the matching DefaultX() field. Each flag's
// DefValue is parsed back into a zero option set registered on a
// second FlagSet; the result must equal DefaultX(), so a default that
// drifts from DefaultX(), or a non-zero DefaultX() field no flag
// reaches, fails.
func TestRegisterDefaultsMatch(t *testing.T) {
	for _, tc := range []struct {
		name string
		def  registrar // DefaultX()
		zero registrar // the zero option set
	}{
		{"Sim", ptr(DefaultSim()), new(Sim)},
		{"Experiments", ptr(DefaultExperiments()), new(Experiments)},
		{"Analyze", ptr(DefaultAnalyze()), new(Analyze)},
		{"Serve", ptr(DefaultServe()), new(Serve)},
		{"Bench", ptr(DefaultBench()), new(Bench)},
		{"Tracegen", ptr(DefaultTracegen()), new(Tracegen)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			want := reflect.ValueOf(tc.def).Elem().Interface()
			fs := flag.NewFlagSet(tc.name, flag.ContinueOnError)
			tc.def.Register(fs)
			zfs := flag.NewFlagSet(tc.name, flag.ContinueOnError)
			tc.zero.Register(zfs)

			fs.VisitAll(func(f *flag.Flag) {
				if err := zfs.Set(f.Name, f.DefValue); err != nil {
					t.Errorf("-%s: default %q does not parse: %v", f.Name, f.DefValue, err)
				}
			})
			if got := reflect.ValueOf(tc.zero).Elem().Interface(); !reflect.DeepEqual(got, want) {
				t.Errorf("flag defaults rebuild\n%+v\nwant Default%s()\n%+v", got, tc.name, want)
			}
		})
	}
}

func ptr[T any](v T) *T { return &v }
