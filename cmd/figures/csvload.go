package main

import (
	"fmt"
	"log"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"time"

	"opmap/internal/dataset"
	"opmap/internal/workload"
)

// csvload loads the Fig. 9–11 scale-up data from CSV, the way a daemon
// gets it: it writes workload.Scale at records × attrs to a temporary
// CSV, drops the generator's heap, restarts the kernel's peak-RSS mark,
// and times dataset.ReadCSVFile on one P. The printed peak is the
// load's own: VmHWM after the reset.
func csvload(seed int64, records, attrs int) {
	header("CSV load — the scale-up data read back through dataset.ReadCSVFile")
	dir, err := os.MkdirTemp("", "opmap-csvload-")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "scale.csv")
	ds, err := workload.Scale(workload.ScaleConfig{Seed: seed, Records: records, Attrs: attrs})
	if err != nil {
		log.Fatal(err)
	}
	if err := dataset.WriteCSVFile(path, ds); err != nil {
		log.Fatal(err)
	}
	info, err := os.Stat(path)
	if err != nil {
		log.Fatal(err)
	}
	// ds is dead from here on: this collects it and returns its pages.
	debug.FreeOSMemory()
	// Kernels without the knob keep the process-wide peak, generator
	// included; the line below says which one was measured.
	resetErr := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)

	procs := runtime.GOMAXPROCS(1)
	start := time.Now()
	loaded, err := dataset.ReadCSVFile(path, dataset.CSVOptions{})
	elapsed := time.Since(start)
	runtime.GOMAXPROCS(procs)
	if err != nil {
		log.Fatal(err)
	}
	peak := vmHWM()
	fmt.Printf("records %d × %d attributes + class, CSV %.0f MiB\n",
		loaded.NumRows(), loaded.NumAttrs()-1, float64(info.Size())/(1<<20))
	fmt.Printf("load %.1f s at GOMAXPROCS=1: %.1fk rows/s\n",
		elapsed.Seconds(), float64(loaded.NumRows())/elapsed.Seconds()/1000)
	if resetErr == nil {
		fmt.Printf("peak RSS during the load (VmHWM): %.2f GiB\n", peak/(1<<30))
	} else {
		fmt.Printf("peak RSS of the process, generator included (VmHWM; reset failed: %v): %.2f GiB\n", resetErr, peak/(1<<30))
	}
	var codeBytes float64
	narrow := 0
	for i := 0; i < loaded.NumAttrs(); i++ {
		if c := loaded.Column(i); c.Kind == dataset.Categorical {
			codeBytes += float64(c.Codes.Len() * c.Codes.Width())
			if !c.Codes.IsWide() {
				narrow++
			}
		}
	}
	fmt.Printf("codes held: %.2f GiB, %d of %d columns at one byte per row (%.2f GiB as int32)\n",
		codeBytes/(1<<30), narrow, loaded.NumAttrs(), float64(loaded.NumRows())*float64(loaded.NumAttrs())*4/(1<<30))
	runtime.KeepAlive(loaded)
}

// vmHWM returns the process's peak resident set size in bytes, read
// from /proc/self/status, or 0 where that file does not exist.
func vmHWM() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, _ := strconv.ParseFloat(f[1], 64)
			return kb * 1024
		}
	}
	return 0
}
