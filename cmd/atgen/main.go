// Command atgen is the standalone input-generator tool: it regenerates
// the synthetic inputs the workloads are driven by (Table II) and writes
// them in plain-text form, so instances can be inspected or fed to other
// systems.
//
// Usage:
//
//	atgen -gen urand -scale 16 -o graph.el     # "u v" edge lines
//	atgen -gen kron  -scale 18                  # to stdout
//	atgen -gen ycsb  -n 100000                  # uniform key trace
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"

	"atscale/internal/workloads"
	"atscale/internal/workloads/graph"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "atgen:", err)
		os.Exit(1)
	}
}

func run() (err error) {
	var (
		gen   = flag.String("gen", "urand", "generator: urand|kron|ycsb")
		scale = flag.Uint64("scale", 14, "graph scale (2^scale vertices)")
		n     = flag.Uint64("n", 100000, "ycsb: number of key samples")
		keys  = flag.Uint64("keys", 1<<20, "ycsb: key space size")
		out   = flag.String("o", "", "output file (default stdout)")
	)
	flag.Parse()

	var stats graph.Stats
	if *gen == "urand" || *gen == "kron" {
		// A scale too large to build fails here, before -o's file is
		// created.
		if stats, err = graph.GraphStats(*gen, *scale); err != nil {
			return err
		}
	}

	var w io.Writer = os.Stdout
	if *out != "" {
		f, createErr := os.Create(*out)
		if createErr != nil {
			return createErr
		}
		// A failed Close can lose written lines, so it fails the run.
		defer func() {
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}()
		w = f
	}

	switch *gen {
	case "urand", "kron":
		edges, err := graph.WriteEdgeList(w, *gen, *scale)
		if err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "%s scale %d: %d vertices, %d undirected edges, max degree %d\n",
			*gen, *scale, stats.Vertices, edges, stats.MaxDegree)
		return nil
	case "ycsb":
		rng := workloads.NewRNG(*keys ^ 0x79637362)
		bw := bufio.NewWriter(w)
		for i := uint64(0); i < *n; i++ {
			if _, err := fmt.Fprintf(bw, "GET user%d\n", rng.Intn(*keys)); err != nil {
				return err
			}
		}
		return bw.Flush()
	}
	return fmt.Errorf("unknown generator %q", *gen)
}
