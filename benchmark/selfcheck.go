package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"strings"
)

// manifest is the part of BENCHMARK.json the self-check reads.
type manifest struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readManifest() (*manifest, error) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		return nil, err
	}
	var m manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &m, nil
}

// runSelfcheck does what the driver does before it accepts the benchmark:
// per workload, two sets of runs of the same build, n seeds each, one set
// after the other, so that the box may well change speed between them. Per
// (workload, metric) it prints both medians, how much worse the second is
// than the first, each set's quartile spread, and the bound; any spread or
// difference beyond the bound fails.
func runSelfcheck(n int, seconds float64) error {
	m, err := readManifest()
	if err != nil {
		return err
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	breached := false
	for _, w := range m.Workloads {
		sets := [2]map[string][]float64{{}, {}}
		var slow [2][]float64
		for set := range sets {
			for seed := 1; seed <= n; seed++ {
				res, slowdown, err := runOnce(self, w.Name, seed, seconds)
				if err != nil {
					return err
				}
				slow[set] = append(slow[set], slowdown)
				if !res.Correct || res.Failed > 0 {
					return fmt.Errorf("%s seed %d: correct=%v failed=%d", w.Name, seed, res.Correct, res.Failed)
				}
				for name, v := range res.Metrics {
					sets[set][name] = append(sets[set][name], v.Value)
				}
			}
		}
		fmt.Printf("%-12s slowdown of the box, median per run: A %.2f to %.2f, B %.2f to %.2f\n",
			w.Name, minOf(slow[0]), maxOf(slow[0]), minOf(slow[1]), maxOf(slow[1]))
		for _, e := range m.EndToEnd {
			a, b := sets[0][e.Name], sets[1][e.Name]
			ma, mb := median(a), median(b)
			worse := (mb - ma) / ma
			if e.Better == "higher" {
				worse = -worse
			}
			sa, sb := quartileSpread(a), quartileSpread(b)
			verdict := "ok"
			if worse > e.Bound || (e.Name != "setup_s" && (sa > e.Bound || sb > e.Bound)) {
				verdict, breached = "BREACH", true
			}
			fmt.Printf("%-12s %-24s A %12.6g  B %12.6g  worse %+6.2f%%  spread A %5.2f%% B %5.2f%%  bound %4.1f%%  %s\n",
				w.Name, e.Name, ma, mb, 100*worse, 100*sa, 100*sb, 100*e.Bound, verdict)
		}
	}
	if breached {
		return errors.New("a bound was breached")
	}
	return nil
}

// runOnce runs one workload in a child process and returns its result and
// the median slowdown it printed.
func runOnce(self, workload string, seed int, seconds float64) (*result, float64, error) {
	cmd := exec.Command(self, "--workload", workload, "--seed", strconv.Itoa(seed),
		"--seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "--trace", "0")
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, 0, fmt.Errorf("%s seed %d: %w", workload, seed, err)
	}
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	var res result
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		return nil, 0, fmt.Errorf("%s seed %d: last line is not a result: %w", workload, seed, err)
	}
	var slowdown float64
	for _, l := range lines {
		if rest, ok := strings.CutPrefix(string(l), slowdownPrefix); ok {
			_, _ = fmt.Sscanf(rest, "%f", &slowdown) // 0 if the line is malformed: informational only
		}
	}
	return &res, slowdown, nil
}
