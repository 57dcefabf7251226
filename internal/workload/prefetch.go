package workload

// Prefetching: a workload's reference stream never depends on memory
// timing — each generator draws only from its own rng, recent-address
// window and cursor — so it can be produced ahead of the event loop on
// another goroutine without changing a single reference.

const (
	// prefetchBatch is the number of references handed over per channel
	// operation.
	prefetchBatch = 1024
	// prefetchDepth is the number of full batches that may wait for the
	// consumer. One more batch is held by the consumer, so the producer
	// runs at most prefetchDepth+1 batches ahead. Two queued batches keep
	// the consumer drawing while its producer waits for a CPU; each more
	// costs 24 KiB per core.
	prefetchDepth = 2
	// prefetchPoll is how many references the producer draws between
	// checks for Stop, which bounds how long Stop waits.
	prefetchPoll = 128
)

// Prefetched is a Generator that draws its inner generator's references on
// a producer goroutine, in fixed-size batches, ahead of the consumer. The
// consumer sees exactly the inner stream: the inner generator is touched
// only by the producer, strictly in order. Next must be called from one
// goroutine, and not after Stop.
type Prefetched struct {
	name string
	foot uint64

	cur []Ref // batch being consumed
	pos int   // next index into cur

	// full holds up to prefetchDepth filled batches; free has room for
	// every batch, so returning one never blocks.
	full chan []Ref
	free chan []Ref

	stop chan struct{} // closed by Stop
	done chan struct{} // closed when the producer exits
}

// Prefetch starts a producer goroutine over g and returns the consuming
// Generator. The caller must call Stop once it is done with the stream;
// g must not be used again until Stop has returned.
func Prefetch(g Generator) *Prefetched {
	p := &Prefetched{
		name: g.Name(),
		foot: g.FootprintBytes(),
		full: make(chan []Ref, prefetchDepth),
		free: make(chan []Ref, prefetchDepth+1),
		stop: make(chan struct{}),
		done: make(chan struct{}),
	}
	go p.produce(g)
	return p
}

// produce fills batches from g until Stop. It allocates the batches
// itself, once, so the caller does not wait for them to be zeroed.
func (p *Prefetched) produce(g Generator) {
	defer close(p.done)
	buf := make([]Ref, (prefetchDepth+1)*prefetchBatch)
	for i := 0; i <= prefetchDepth; i++ {
		p.free <- buf[i*prefetchBatch : (i+1)*prefetchBatch : (i+1)*prefetchBatch]
	}
	for {
		var b []Ref
		select {
		case b = <-p.free:
		case <-p.stop:
			return
		}
		for i := range b {
			if i%prefetchPoll == 0 && p.stopped() {
				return
			}
			g.Next(&b[i])
		}
		select {
		case p.full <- b:
		case <-p.stop:
			return
		}
	}
}

// stopped reports whether Stop has been called.
func (p *Prefetched) stopped() bool {
	select {
	case <-p.stop:
		return true
	default:
		return false
	}
}

// Name implements Generator.
func (p *Prefetched) Name() string { return p.name }

// FootprintBytes implements Generator.
func (p *Prefetched) FootprintBytes() uint64 { return p.foot }

// Next implements Generator.
func (p *Prefetched) Next(r *Ref) {
	if p.pos == len(p.cur) {
		p.refill()
	}
	*r = p.cur[p.pos]
	p.pos++
}

// refill returns the spent batch to the producer and waits for the next
// full one.
func (p *Prefetched) refill() {
	if p.cur != nil {
		p.free <- p.cur
	}
	select {
	case p.cur = <-p.full:
	case <-p.done:
		panic("workload: Next after Stop")
	}
	p.pos = 0
}

// Stop ends the producer and waits for it to exit. Call it once.
func (p *Prefetched) Stop() {
	close(p.stop)
	<-p.done
}
