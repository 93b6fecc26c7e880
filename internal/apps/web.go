package apps

import (
	"repro/internal/sim"
)

// WebOrigin serves content with a fixed round-trip latency.
type WebOrigin struct {
	Latency sim.Time
	content map[string]int // name -> size
}

// NewWebOrigin creates an origin server.
func NewWebOrigin(latency sim.Time) *WebOrigin {
	return &WebOrigin{Latency: latency, content: map[string]int{}}
}

// Put publishes content.
func (o *WebOrigin) Put(name string, size int) { o.content[name] = size }

// Get fetches content, returning its size and the latency paid.
func (o *WebOrigin) Get(name string) (int, sim.Time, bool) {
	size, ok := o.content[name]
	if !ok {
		return 0, o.Latency, false
	}
	return size, o.Latency, true
}

// WebCache is the §VI-A mature-application enhancement: an in-network
// cache that cuts latency for popular content — and one more point of
// failure and control. LRU with a fixed entry capacity.
type WebCache struct {
	Capacity int
	Latency  sim.Time // cache hit latency
	Origin   *WebOrigin

	entries map[string]int
	order   []string // LRU order, most recent last
}

// NewWebCache creates a cache in front of an origin.
func NewWebCache(capacity int, latency sim.Time, origin *WebOrigin) *WebCache {
	return &WebCache{Capacity: capacity, Latency: latency, Origin: origin, entries: map[string]int{}}
}

// Get fetches through the cache: a hit costs the cache's latency, a miss
// the origin's on top.
func (c *WebCache) Get(name string) (int, sim.Time, bool) {
	if size, ok := c.entries[name]; ok {
		c.touch(name)
		return size, c.Latency, true
	}
	size, lat, ok := c.Origin.Get(name)
	if !ok {
		return 0, lat, false
	}
	c.insert(name, size)
	return size, c.Latency + lat, true
}

func (c *WebCache) touch(name string) {
	for i, n := range c.order {
		if n == name {
			c.order = append(append(c.order[:i:i], c.order[i+1:]...), name)
			return
		}
	}
}

func (c *WebCache) insert(name string, size int) {
	if c.Capacity <= 0 {
		return
	}
	if len(c.entries) >= c.Capacity {
		oldest := c.order[0]
		c.order = c.order[1:]
		delete(c.entries, oldest)
	}
	c.entries[name] = size
	c.order = append(c.order, name)
}

// VoIPScore maps one-way delay to a 1–5 quality score, a compressed
// E-model: excellent below 150 ms, degrading linearly, unusable past
// 400 ms. This is the demand curve behind §VII's Internet Telephony
// example — VoIP is the application whose value depends on QoS.
func VoIPScore(delay sim.Time) float64 {
	ms := delay.Millis()
	switch {
	case ms <= 150:
		return 4.4
	case ms >= 400:
		return 1.0
	default:
		return 4.4 - (ms-150)*(3.4/250)
	}
}
