package dist

// TrainerSeriesNames returns the names of the trainerSeries table, in
// table order, for the external tests.
func TrainerSeriesNames() []string {
	names := make([]string, len(trainerSeries))
	for i, s := range trainerSeries {
		names[i] = s.name
	}
	return names
}
