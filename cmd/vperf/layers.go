package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"os/exec"
	"strconv"
	"strings"
)

// layers are the repository's modules, plus the harness (this command)
// and gc (samples with no frame of either). A CPU sample belongs to the
// innermost frame whose function name starts with
// "repro/internal/<pkg>." (layer <pkg>) or "main." (harness); runtime
// and standard-library frames count toward the layer that called them.
var layers = []string{
	"sim", "netem", "tcp", "packet", "player", "abr", "httpx", "service", "media",
	"analysis", "trace", "stats", "scenario", "session", "runner", "harness", "gc",
}

func isLayer(name string) bool {
	for _, l := range layers {
		if l == name {
			return true
		}
	}
	return false
}

// layerOf attributes one stack, innermost frame first. The match is on
// the name's prefix only: instantiations of generic functions carry
// "repro/internal/..." inside their type brackets whatever package the
// function itself is in.
func layerOf(frames []string) string {
	for _, f := range frames {
		if rest, ok := strings.CutPrefix(f, "repro/internal/"); ok {
			if i := strings.IndexAny(rest, "./"); i > 0 {
				return rest[:i]
			}
			return rest
		}
		if strings.HasPrefix(f, "main.") {
			return "harness"
		}
	}
	return "gc"
}

// profileLayers buckets the samples of a CPU profile by layer, reading
// the toolchain's own text rendering of it.
func profileLayers(path string) (map[string]int64, error) {
	cmd := exec.Command("go", "tool", "pprof", "-sample_index=samples", "-traces", path)
	var out, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("go tool pprof: %v: %s", err, strings.TrimSpace(stderr.String()))
	}
	return parseTraces(&out)
}

// parseTraces reads the output of `go tool pprof -sample_index=samples
// -traces`: a header, then one block per stack, each opened by a dashed
// separator. A block may start with label lines ("key:  value"); then
// the first frame's line carries the sample count before the innermost
// frame, and each following line one frame, outward. Inlined frames are
// marked "(inline)". Blocks labelled by the calibration kernel are
// dropped.
func parseTraces(r io.Reader) (map[string]int64, error) {
	out := map[string]int64{}
	var count int64
	var frames []string
	inBlock, calibration := false, false
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 4<<20)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "-----") {
			if frames != nil && !calibration {
				out[layerOf(frames)] += count
			}
			frames, inBlock, calibration = nil, true, false
			continue
		}
		text := strings.TrimSpace(line)
		if !inBlock || text == "" {
			continue
		}
		if frames == nil {
			num, rest, _ := strings.Cut(text, " ")
			n, err := strconv.ParseInt(num, 10, 64)
			if err != nil {
				if key, value, label := strings.Cut(text, ":  "); label {
					calibration = calibration || key == calLabelKey && value == calLabelValue
					continue
				}
				return nil, fmt.Errorf("pprof traces: no sample count in %q", line)
			}
			count, text = n, strings.TrimSpace(rest)
		}
		frames = append(frames, strings.TrimSuffix(text, " (inline)"))
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if frames != nil && !calibration {
		out[layerOf(frames)] += count
	}
	return out, nil
}
