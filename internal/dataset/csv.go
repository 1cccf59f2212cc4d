package dataset

import (
	"bytes"
	"encoding/csv"
	"fmt"
	"io"
	"math"
	"slices"
	"strconv"
)

// CSVOptions controls FromCSV parsing.
type CSVOptions struct {
	// GroupColumn is the header name of the group attribute (required).
	GroupColumn string
	// ForceCategorical lists columns to treat as categorical even if every
	// value parses as a number (e.g. encoded equipment IDs).
	ForceCategorical []string
	// Name is the dataset name; defaults to "csv".
	Name string
}

// FromCSV reads a headered CSV into a Dataset. Columns whose every value
// parses as a float become continuous attributes; everything else is
// categorical. The group column is extracted and does not appear among the
// attributes.
//
// The CSV dialect is encoding/csv's at its defaults: comma-separated,
// RFC 4180 quoting with no bare quotes, \r\n read as \n, blank lines
// skipped, and every record holding the header's field count. Malformed
// input fails with the *csv.ParseError encoding/csv would return.
//
// Loading reads r once into one buffer and splits fields in place, so no
// string is made per record or per field. Columns are sized from the
// buffer's line count before the scan. The group column and forced
// columns are dictionary-encoded as rows arrive; any other column stays
// numeric until its first other value (a non-number or ±Inf). A column
// that turns categorical after its first row, or ends with no finite
// value, is encoded by one more scan of the buffer after the first.
func FromCSV(r io.Reader, opts CSVOptions) (*Dataset, error) {
	if opts.GroupColumn == "" {
		return nil, fmt.Errorf("dataset: CSVOptions.GroupColumn is required")
	}
	buf, readErr := readAll(r)
	s := csvScanner{buf: buf, readErr: readErr}
	if _, err := s.record(); err != nil {
		return nil, fmt.Errorf("dataset: reading CSV header: %w", err)
	}
	header := make([]string, len(s.fields))
	for i, f := range s.fields {
		header[i] = string(f)
	}
	groupCol := slices.Index(header, opts.GroupColumn)
	if groupCol == -1 {
		return nil, fmt.Errorf("dataset: group column %q not found in header", opts.GroupColumn)
	}
	// A record is at least one line, so the line count bounds the rows;
	// it is exact unless the file has blank lines or quoted line breaks.
	body := buf[s.off:]
	size := bytes.Count(body, []byte{'\n'})
	if len(body) > 0 && body[len(body)-1] != '\n' {
		size++
	}
	cols := make([]csvColumn, len(header))
	for i, h := range header {
		cols[i] = csvColumn{size: size, numeric: i != groupCol && !slices.Contains(opts.ForceCategorical, h)}
	}

	// A copy at the first record, for the re-read below; it shares s's
	// field and scratch buffers, which s is done with by then.
	first := s
	rows, err := s.load(cols)
	if err != nil {
		return nil, err
	}
	if rows == 0 {
		return nil, fmt.Errorf("dataset: CSV has no data rows")
	}
	var reread []int
	for i := range cols {
		c := &cols[i]
		if c.numeric && !c.finite { // no finite value: categorical after all
			c.numeric, c.nums, c.reread = false, nil, true
		}
		if c.reread {
			reread = append(reread, i)
		}
	}
	if len(reread) > 0 {
		first.reread(cols, reread, rows)
	}

	name := opts.Name
	if name == "" {
		name = "csv"
	}
	b := NewBuilder(name)
	for i, h := range header {
		if i == groupCol {
			continue
		}
		if c := &cols[i]; c.numeric {
			b.AddContinuous(h, c.nums[:rows])
		} else {
			b.AddCategoricalCoded(h, c.codes[:rows], c.dict.domain)
		}
	}
	b.SetGroupsCoded(cols[groupCol].codes[:rows], cols[groupCol].dict.domain)
	return b.Build()
}

// load scans the records after the header into cols and returns how many
// it read.
func (s *csvScanner) load(cols []csvColumn) (int, error) {
	for row := 0; ; row++ {
		line, err := s.record()
		if err == io.EOF {
			return row, nil
		}
		if err == nil && len(s.fields) != len(cols) {
			err = &csv.ParseError{StartLine: line, Line: line, Column: 1, Err: csv.ErrFieldCount}
		}
		if err != nil {
			return 0, fmt.Errorf("dataset: reading CSV: %w", err)
		}
		for i, f := range s.fields {
			cols[i].add(row, f)
		}
	}
}

// reread encodes the listed columns' fields of the first rows records,
// scanning from s's position. The records were read before, so the scan
// cannot fail.
func (s *csvScanner) reread(cols []csvColumn, which []int, rows int) {
	for row := 0; row < rows; row++ {
		s.record()
		for _, i := range which {
			cols[i].encode(row, s.fields[i])
		}
	}
}

// csvColumn accumulates one CSV column as its rows arrive, in slices of
// the column's size allocated on first use. While numeric it keeps the
// parsed values alone; once categorical, it keeps codes into a
// first-appearance domain. A column that turns categorical after its
// first row is marked reread and skips its fields: codes in
// first-appearance order need its earlier fields encoded first, which the
// loader does from the buffer once the scan is done.
type csvColumn struct {
	size    int
	numeric bool
	finite  bool // numeric and some value is finite
	reread  bool
	nums    []float64
	codes   []int
	dict    interner
}

func (c *csvColumn) add(row int, f []byte) {
	if c.numeric {
		if v, ok := parseCell(f); ok {
			if c.nums == nil {
				c.nums = make([]float64, c.size)
			}
			c.nums[row] = v
			c.finite = c.finite || v == v
			return
		}
		c.numeric, c.nums, c.reread = false, nil, row > 0
	}
	if !c.reread {
		c.encode(row, f)
	}
}

// encode sets the code of row's field f.
func (c *csvColumn) encode(row int, f []byte) {
	if c.codes == nil {
		c.codes = make([]int, c.size)
	}
	c.codes[row] = c.dict.code(f)
}

// parseCell parses one field of a numeric column. The UCI missing-value
// markers — empty string, "?", "NA" — and a literal "NaN" or any NaN
// ParseFloat reads become NaN (missing). ±Inf or a parse error reports
// ok=false: the column falls back to categorical, where the values stay
// visible.
func parseCell(b []byte) (f float64, ok bool) {
	switch string(b) {
	case "", "?", "NA", "NaN", "nan":
		return math.NaN(), true
	}
	f, err := strconv.ParseFloat(string(b), 64)
	if err != nil || math.IsInf(f, 0) {
		return 0, false
	}
	if math.IsNaN(f) {
		return math.NaN(), true
	}
	return f, true
}

// readAll reads r to its end into one buffer, allocated once when r
// reports its length (a bytes or strings reader), where io.ReadAll's
// doubling would allocate the input about twice over. Like io.ReadAll it
// returns the bytes read with any error other than io.EOF.
func readAll(r io.Reader) ([]byte, error) {
	size := 512
	if lr, ok := r.(interface{ Len() int }); ok {
		size += lr.Len()
	}
	buf := make([]byte, 0, size)
	for {
		n, err := r.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			return buf, nil
		}
		if err != nil {
			return buf, err
		}
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
	}
}

// csvScanner splits the records of one in-memory CSV buffer by the rules
// of an encoding/csv Reader at its defaults. Fields are slices of the
// buffer; only a quoted field holding a "" escape or a line break is
// copied, unescaped, into a scratch buffer the next record reuses.
type csvScanner struct {
	buf     []byte
	off     int   // start of the next line
	line    int   // lines read so far
	readErr error // what the reader returned after buf; nil at a clean EOF

	fields  [][]byte // the last record's fields
	scratch []byte
}

// nextLine returns the next line without its \n or \r\n; nl reports
// whether it had one. A last line without one comes with err nil, minus a
// trailing \r, at a clean EOF, or as it is with the reader's error. After
// the last line, err is io.EOF or the reader's error.
func (s *csvScanner) nextLine() (line []byte, nl bool, err error) {
	s.line++
	rest := s.buf[s.off:]
	if i := bytes.IndexByte(rest, '\n'); i >= 0 {
		s.off += i + 1
		line = rest[:i]
		if i > 0 && line[i-1] == '\r' {
			line = line[:i-1]
		}
		return line, true, nil
	}
	s.off = len(s.buf)
	switch {
	case s.readErr != nil:
		return rest, false, s.readErr
	case len(rest) == 0:
		return nil, false, io.EOF
	case rest[len(rest)-1] == '\r':
		rest = rest[:len(rest)-1]
	}
	return rest, false, nil
}

// record reads the next record into s.fields and returns its first line
// number. Past the last record it returns io.EOF; otherwise its error is
// the one encoding/csv's Read returns for the same input: a
// *csv.ParseError with the same lines and column, or the reader's error.
// It does not check the field count.
func (s *csvScanner) record() (recLine int, err error) {
	var line []byte
	var nl bool
	var errRead error
	for errRead == nil {
		line, nl, errRead = s.nextLine()
		if errRead != nil || len(line) > 0 {
			break
		}
	}
	if errRead == io.EOF {
		return 0, io.EOF
	}
	s.fields, s.scratch = s.fields[:0], s.scratch[:0]
	recLine = s.line
	posLine, col := s.line, 1 // where the scan is; col counts bytes from 1
fields:
	for {
		if len(line) == 0 || line[0] != '"' {
			j := 0 // fields are short: a byte loop beats two IndexByte calls
			for j < len(line) && line[j] != ',' && line[j] != '"' {
				j++
			}
			if j < len(line) && line[j] == '"' {
				err = &csv.ParseError{StartLine: recLine, Line: s.line, Column: col + j, Err: csv.ErrBareQuote}
				break
			}
			s.fields = append(s.fields, line[:j])
			if j == len(line) {
				break
			}
			col += j + 1
			line = line[j+1:]
			continue
		}
		// A quoted field: its bytes are a slice of the line until a ""
		// escape or a line break sends them to the scratch buffer.
		line = line[1:]
		col++
		start := len(s.scratch)
		for {
			i := bytes.IndexByte(line, '"')
			if i >= 0 {
				seg := line[:i]
				line = line[i+1:]
				col += i + 1
				switch {
				case len(line) > 0 && line[0] == '"':
					s.scratch = append(append(s.scratch, seg...), '"')
					line = line[1:]
					col++
				case len(line) > 0 && line[0] == ',':
					s.fields = append(s.fields, s.quoted(start, seg))
					line = line[1:]
					col++
					continue fields
				case len(line) == 0:
					s.fields = append(s.fields, s.quoted(start, seg))
					break fields
				default:
					err = &csv.ParseError{StartLine: recLine, Line: s.line, Column: col - 1, Err: csv.ErrQuote}
					break fields
				}
			} else if len(line) > 0 || nl {
				s.scratch = append(s.scratch, line...)
				if nl {
					s.scratch = append(s.scratch, '\n')
				}
				if errRead != nil {
					break fields
				}
				col += len(line)
				if nl {
					col++
				}
				line, nl, errRead = s.nextLine()
				if len(line) > 0 || nl {
					posLine++
					col = 1
				}
				if errRead == io.EOF {
					errRead = nil
				}
			} else {
				if errRead == nil { // the input ends inside the quotes
					err = &csv.ParseError{StartLine: recLine, Line: posLine, Column: col, Err: csv.ErrQuote}
					break fields
				}
				s.fields = append(s.fields, s.quoted(start, nil))
				break fields
			}
		}
	}
	if err == nil {
		err = errRead
	}
	return recLine, err
}

// quoted returns a quoted field whose unescaped bytes are those copied to
// s.scratch from start on, followed by tail: tail itself when none were.
func (s *csvScanner) quoted(start int, tail []byte) []byte {
	if len(s.scratch) == start {
		return tail
	}
	s.scratch = append(s.scratch, tail...)
	return s.scratch[start:]
}

// WriteCSV writes the dataset (attributes plus a trailing group column) as
// headered CSV. It fails if an attribute is named groupColumn: FromCSV
// would take that attribute's column as the groups when reading it back.
func WriteCSV(w io.Writer, d *Dataset, groupColumn string) error {
	if d.AttrIndex(groupColumn) >= 0 {
		return fmt.Errorf("dataset: attribute %q has the group column's name", groupColumn)
	}
	cw := csv.NewWriter(w)
	header := make([]string, 0, d.NumAttrs()+1)
	for i := 0; i < d.NumAttrs(); i++ {
		header = append(header, d.Attr(i).Name)
	}
	header = append(header, groupColumn)
	if err := cw.Write(header); err != nil {
		return err
	}
	rec := make([]string, len(header))
	for r := 0; r < d.Rows(); r++ {
		for i := 0; i < d.NumAttrs(); i++ {
			if d.Attr(i).Kind == Continuous {
				rec[i] = strconv.FormatFloat(d.Cont(i, r), 'g', -1, 64)
			} else {
				rec[i] = d.CatValue(i, r)
			}
		}
		rec[len(rec)-1] = d.GroupName(d.Group(r))
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}
