package main

import (
	"math"
	"time"
)

// A shared host's speed drifts as other tenants come and go: on the 2-core
// virtual machine this benchmark was tuned on, the same trace-diurnal run
// took 1.5 s in one minute and 2.3 s in the next. So each untraced run also
// times a fixed computation that uses no repository code, once just before
// and once just after the measured call, and the run-time metrics are
// scaled to the speed at which that reference takes refNominalS. A change
// to the repository cannot move the reference, so the scaled metrics still
// move with the code; the raw times stay in the results file.
const refNominalS = 0.3

// timeReference runs the reference computation and returns its wall time.
func timeReference() float64 {
	start := time.Now()
	refSink = referenceWork()
	return time.Since(start).Seconds()
}

var (
	refSink  float64
	refNodes *refNode
)

type refEntry struct {
	at  float64
	seq uint64
}

type refNode struct {
	next *refNode
	v    [6]float64
}

// referenceWork mixes the kinds of work the workloads spend their time on,
// in roughly equal parts: a binary heap of timestamped events, float dot
// products, random reads over a 16 MB table, and short-lived linked
// allocations that keep the garbage collector busy. Host contention slows
// each kind differently; together they track the workloads' slowdowns
// best.
func referenceWork() float64 {
	x := uint64(0x9E3779B97F4A7C15)
	rand := func() uint64 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return x
	}
	heap := make([]refEntry, 0, 1<<14+1)
	less := func(i, j int) bool {
		if heap[i].at != heap[j].at {
			return heap[i].at < heap[j].at
		}
		return heap[i].seq < heap[j].seq
	}
	now := 0.0
	for n := uint64(0); n < 600_000; n++ {
		heap = append(heap, refEntry{at: now + float64(rand()>>11)/(1<<53), seq: n})
		for i := len(heap) - 1; i > 0 && less(i, (i-1)/2); i = (i - 1) / 2 {
			heap[i], heap[(i-1)/2] = heap[(i-1)/2], heap[i]
		}
		if len(heap) <= 1<<14 {
			continue
		}
		now = heap[0].at
		last := len(heap) - 1
		heap[0] = heap[last]
		heap = heap[:last]
		for i := 0; ; {
			c := 2*i + 1
			if c >= len(heap) {
				break
			}
			if c+1 < len(heap) && less(c+1, c) {
				c++
			}
			if !less(c, i) {
				break
			}
			heap[i], heap[c] = heap[c], heap[i]
			i = c
		}
	}

	a, b := make([]float64, 1<<14), make([]float64, 1<<14)
	for i := range a {
		a[i], b[i] = math.Sin(float64(i)), math.Cos(float64(i))
	}
	sum := now
	for rep := 0; rep < 450; rep++ {
		d := 0.0
		for i := range a {
			d += a[i] * b[i]
		}
		sum += d
	}

	table := make([]uint64, 1<<21)
	for i := range table {
		table[i] = uint64(i) * 0x9E3779B97F4A7C15
	}
	var acc uint64
	for n := 0; n < 10_000_000; n++ {
		acc += table[rand()&(1<<21-1)]
	}
	sum += float64(acc >> 40)

	for rep := 0; rep < 18; rep++ {
		var head *refNode
		for i := 0; i < 100_000; i++ {
			head = &refNode{next: head, v: [6]float64{float64(i)}}
		}
		refNodes = head
	}
	refNodes = nil
	return sum
}
