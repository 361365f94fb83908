// Command stkdebench reproduces Figure 10 (Section VII): it runs the
// STKDE application on six instances, once per coloring algorithm, and
// reports the relation between the coloring's maxcolor and the measured
// parallel runtime on -workers goroutines (plus the deterministic
// makespan simulated at the paper's 6 processors, whatever -workers is).
//
// Usage:
//
//	stkdebench                      all six instances, NumCPU workers, 5 runs
//	stkdebench -workers 4 -runs 3
//	stkdebench -out results         also write results/fig10.csv
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"

	"stencilivc/internal/experiments"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "stkdebench:", err)
		os.Exit(1)
	}
}

func run() error {
	workers := flag.Int("workers", runtime.NumCPU(), "parallel workers")
	runs := flag.Int("runs", 5, "timed runs to average per point")
	seed := flag.Int64("seed", 1, "dataset seed")
	outDir := flag.String("out", "results", "directory for CSV output")
	flag.Parse()

	cfgs := experiments.Fig10Instances()
	fmt.Printf("Figure 10: %d instances x 7 colorings, %d workers, %d runs each\n\n",
		len(cfgs), *workers, *runs)
	ms, err := experiments.Fig10(cfgs, *seed, *workers, *runs)
	if err != nil {
		return err
	}

	cur := ""
	for _, m := range ms {
		if m.Instance != cur {
			cur = m.Instance
			fmt.Printf("%s\n", cur)
		}
		fmt.Printf("  %-4s colors=%-8d time=%8.4fs  sim-makespan=%d\n",
			m.Algorithm, m.Colors, m.MeanSeconds, m.SimMakespan)
	}

	fmt.Printf("\nlinear regression colors -> runtime (measured: num_cpu=%d, %d workers; simulated: P=%d):\n",
		runtime.NumCPU(), *workers, experiments.Fig10Processors)
	regWall, err := experiments.Fig10Regression(ms, false)
	if err != nil {
		return err
	}
	regSim, err := experiments.Fig10Regression(ms, true)
	if err != nil {
		return err
	}
	for _, cfg := range cfgs {
		w := regWall[cfg.Name]
		s := regSim[cfg.Name]
		fmt.Printf("  %-36s slope=%+.3e r=%+.3f   (simulated P=%d: r=%+.3f)\n",
			cfg.Name, w[1], w[2], experiments.Fig10Processors, s[2])
	}

	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(*outDir, "fig10.csv"))
	if err != nil {
		return err
	}
	defer f.Close()
	fmt.Fprintln(f, "instance,algorithm,colors,seconds,sim_makespan")
	for _, m := range ms {
		fmt.Fprintf(f, "%s,%s,%d,%.6f,%d\n",
			m.Instance, m.Algorithm, m.Colors, m.MeanSeconds, m.SimMakespan)
	}
	return nil
}
