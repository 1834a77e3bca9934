package adios

// Aggregator reports whether this rank aggregates its substream.
func (w *Writer) Aggregator() bool { return w.comm.Rank() == w.agg }
